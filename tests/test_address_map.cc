/** @file Address interleave and tbloff hash property tests. */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>

#include "mem/address_map.hh"
#include "sim/random.hh"

namespace {

constexpr mem::Addr kTableBase = 0xF000'0000;
constexpr std::uint32_t kWordIndices = 1u << 22; // 4 GB / 1 KB blocks

/**
 * Reference tbloff permutation, written as the bit-by-bit walk the
 * hash is specified by: the covered line's bank field (index bits
 * [1 .. bankBits]) moves to the table word's home-bank field (index
 * bits [9 .. 9+bankBits-1]); the other bits keep their order over the
 * remaining positions. AddressMap computes the same map in closed form.
 */
std::uint32_t
refPermute(std::uint32_t idx, unsigned bank_bits)
{
    std::uint32_t out = 0;
    for (unsigned i = 0; i < bank_bits; ++i) {
        if (idx & (1u << (1 + i)))
            out |= 1u << (9 + i);
    }
    unsigned out_pos = 0;
    auto place = [&](unsigned in_bit) {
        if (out_pos == 9)
            out_pos += bank_bits; // skip the pinned bank field
        if (idx & (1u << in_bit))
            out |= 1u << out_pos;
        ++out_pos;
    };
    place(0);
    for (unsigned i = bank_bits + 1; i < 22; ++i)
        place(i);
    return out;
}

std::uint32_t
refUnpermute(std::uint32_t out, unsigned bank_bits)
{
    std::uint32_t idx = 0;
    for (unsigned i = 0; i < bank_bits; ++i) {
        if (out & (1u << (9 + i)))
            idx |= 1u << (1 + i);
    }
    unsigned out_pos = 0;
    auto take = [&](unsigned in_bit) {
        if (out_pos == 9)
            out_pos += bank_bits;
        if (out & (1u << out_pos))
            idx |= 1u << in_bit;
        ++out_pos;
    };
    take(0);
    for (unsigned i = bank_bits + 1; i < 22; ++i)
        take(i);
    return idx;
}

TEST(AddressMap, BankAndChannelFields)
{
    mem::AddressMap map(32, 8, kTableBase);
    // The bank field starts at bit 11 (2 KB controller stride,
    // matching footnote 1's addr[10..0]).
    EXPECT_EQ(map.bankOf(0x0000'0000), 0u);
    EXPECT_EQ(map.bankOf(0x0000'0800), 1u);
    EXPECT_EQ(map.bankOf(0x0000'07FF), 0u);
    // Channel is the low three bank bits: addr[13..11] stride across
    // the eight controllers.
    EXPECT_EQ(map.channelOf(0x0000'0800), 1u);
    EXPECT_EQ(map.channelOf(0x0000'4000), 0u); // bank 8, channel 0
    EXPECT_EQ(map.bankOf(0x0000'4000), 8u);
}

TEST(AddressMap, RejectsBadConfigs)
{
    EXPECT_THROW(mem::AddressMap(12, 4, kTableBase), std::runtime_error);
    EXPECT_THROW(mem::AddressMap(8, 3, kTableBase), std::runtime_error);
    EXPECT_THROW(mem::AddressMap(4, 8, kTableBase), std::runtime_error);
    EXPECT_THROW(mem::AddressMap(8, 2, 0x1234'0000), std::runtime_error);
}

TEST(AddressMap, TableBitIndexIsLineWithinKilobyteBlock)
{
    mem::AddressMap map(8, 2, kTableBase);
    EXPECT_EQ(map.tableBitIndex(0x0000), 0u);
    EXPECT_EQ(map.tableBitIndex(0x0020), 1u);
    EXPECT_EQ(map.tableBitIndex(0x03E0), 31u);
    EXPECT_EQ(map.tableBitIndex(0x0400), 0u);
}

TEST(AddressMap, TableAddressesStayInsideTable)
{
    mem::AddressMap map(32, 8, kTableBase);
    sim::Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        mem::Addr a = static_cast<mem::Addr>(rng.next());
        mem::Addr t = map.tableWordAddr(a);
        EXPECT_TRUE(map.inTable(t)) << std::hex << a;
        EXPECT_EQ(t % 4, 0u);
    }
}

/** The architectural property the hash exists for: a line's table
 *  word is homed to the line's own bank (Section 3.4). */
class TblOffBankProperty : public ::testing::TestWithParam<unsigned>
{};

TEST_P(TblOffBankProperty, TableWordHomesToSameBank)
{
    unsigned banks = GetParam();
    unsigned channels = std::max(1u, banks / 4);
    mem::AddressMap map(banks, channels, kTableBase);
    sim::Rng rng(banks);
    for (int i = 0; i < 20000; ++i) {
        mem::Addr a = static_cast<mem::Addr>(rng.next());
        mem::Addr t = map.tableWordAddr(a);
        EXPECT_EQ(map.bankOf(t), map.bankOf(a))
            << "addr=0x" << std::hex << a << " table=0x" << t;
    }
}

TEST_P(TblOffBankProperty, PermutationIsInvertible)
{
    unsigned banks = GetParam();
    unsigned channels = std::max(1u, banks / 4);
    mem::AddressMap map(banks, channels, kTableBase);
    sim::Rng rng(banks * 31 + 1);
    for (int i = 0; i < 20000; ++i) {
        mem::Addr a = static_cast<mem::Addr>(rng.next());
        mem::Addr t = map.tableWordAddr(a);
        // coveredBlockBase must recover the 1 KB block of a.
        EXPECT_EQ(map.coveredBlockBase(t), a & ~mem::Addr(1023))
            << std::hex << a;
    }
}

TEST_P(TblOffBankProperty, PermutationIsInjective)
{
    unsigned banks = GetParam();
    unsigned channels = std::max(1u, banks / 4);
    mem::AddressMap map(banks, channels, kTableBase);
    // Distinct 1 KB blocks must map to distinct table words: the
    // inverse recovering every block proves it. The odd stride runs
    // through every pattern of the low 15 index bits (the bank field at
    // any count) while spanning the whole space.
    for (std::uint32_t idx = 0; idx < kWordIndices; idx += 97) {
        const mem::Addr block = idx << 10;
        ASSERT_EQ(map.coveredBlockBase(map.tableWordAddr(block)), block)
            << std::hex << block;
    }
}

/** The closed form against the bit walk it replaced, both ways, on a
 *  stride through the whole index space (the Table-3 count is checked
 *  exhaustively below). */
TEST_P(TblOffBankProperty, ClosedFormMatchesBitWalkOnStride)
{
    const unsigned banks = GetParam();
    const mem::AddressMap map(banks, 1, kTableBase);
    const unsigned bank_bits = std::countr_zero(banks);
    for (std::uint32_t idx = 0; idx < kWordIndices; idx += 193) {
        ASSERT_EQ(map.tableWordAddr(idx << 10),
                  kTableBase + (refPermute(idx, bank_bits) << 2))
            << std::hex << "word index 0x" << idx;
        ASSERT_EQ(map.coveredBlockBase(kTableBase + (idx << 2)),
                  refUnpermute(idx, bank_bits) << 10)
            << std::hex << "word index 0x" << idx;
    }
}

// Every bank count AddressMap accepts (the bank field is <= 13 bits).
INSTANTIATE_TEST_SUITE_P(BankCounts, TblOffBankProperty,
                         ::testing::Values(1, 2, 4, 8, 16, 32, 64, 128, 256,
                                           512, 1024, 2048, 4096, 8192));

TEST(AddressMap, TblOffMatchesBitWalkForEveryWordAtTable3Banks)
{
    // All 2^22 blocks of the paper's 32-bank machine: the forward hash
    // equals the bit walk and coveredBlockBase inverts it, so the
    // inverse equals the reference inverse too.
    const mem::AddressMap map(32, 8, kTableBase);
    std::uint32_t bad = 0, first_bad = 0;
    for (std::uint32_t idx = 0; idx < kWordIndices; ++idx) {
        const mem::Addr word = map.tableWordAddr(idx << 10);
        if ((word != kTableBase + (refPermute(idx, 5) << 2) ||
             map.coveredBlockBase(word) != idx << 10) &&
            bad++ == 0)
            first_bad = idx;
    }
    EXPECT_EQ(bad, 0u) << "first mismatch at word index 0x" << std::hex
                       << first_bad;
}

TEST(AddressMap, CoveredBlockBaseRejectsOutsideTable)
{
    mem::AddressMap map(8, 2, kTableBase);
    EXPECT_THROW(map.coveredBlockBase(0x1000), std::logic_error);
}

TEST(AddressMap, DramBankAndRowDisambiguate)
{
    mem::AddressMap map(8, 2, kTableBase);
    // Same channel, different DRAM banks for different mid bits.
    mem::Addr a = 0x0000'0000;
    mem::Addr b = a + (1u << (11 + 3)); // first dram-bank bit
    EXPECT_EQ(map.channelOf(a), map.channelOf(b));
    EXPECT_NE(map.dramBankOf(a), map.dramBankOf(b));
    // Rows differ above the bank field.
    mem::Addr c = a + (1u << (11 + 3 + 4));
    EXPECT_NE(map.dramRowOf(a), map.dramRowOf(c));
}

} // namespace
