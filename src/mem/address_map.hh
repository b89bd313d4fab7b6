/**
 * @file
 * Address interleaving across L3 banks / DRAM channels and the
 * fine-grain region-table offset hash (the paper's `hybrid.tbloff`
 * instruction, Section 3.4, footnote 1).
 *
 * Interleave: addr[10..0] map to the same memory controller (2 KB DRAM
 * row stride); the L3 bank field starts at bit 11 and the channel is
 * the low bits of the bank field, so an eight-channel configuration
 * strides channels across addr[13..11] exactly as the paper describes.
 *
 * The table hash implemented here is a parameterized variant of the
 * paper's footnote-1 function. It provides the same architectural
 * property for any power-of-two bank count: the slice of the 16 MB
 * fine-grain table that covers a bank's addresses is itself homed to
 * that bank, so a table lookup never requires a bank-to-bank query.
 * The mapping is a bijection from the 22-bit table-word index space to
 * the 22-bit word-offset space (property-tested in tests/).
 */

#ifndef COHESION_MEM_ADDRESS_MAP_HH
#define COHESION_MEM_ADDRESS_MAP_HH

#include <bit>

#include "mem/types.hh"
#include "sim/logging.hh"

namespace mem {

/** Byte size of the full fine-grain table: 1 bit per 32 B line of 4 GB. */
constexpr std::uint32_t fineTableBytes = 1u << 24; // 16 MB

class AddressMap
{
  public:
    /**
     * @param num_banks     Number of L3 cache banks (power of two).
     * @param num_channels  Number of GDDR channels (power of two,
     *                      <= num_banks).
     * @param table_base    Base physical address of the fine-grain
     *                      region table; must be 16 MB aligned.
     */
    AddressMap(unsigned num_banks, unsigned num_channels, Addr table_base)
        : _numBanks(num_banks), _numChannels(num_channels),
          _bankBits(std::bit_width(num_banks) - 1), _tableBase(table_base)
    {
        fatal_if(!std::has_single_bit(num_banks), "L3 bank count must be "
                 "a power of two, got ", num_banks);
        fatal_if(!std::has_single_bit(num_channels),
                 "channel count must be a power of two, got ", num_channels);
        fatal_if(num_channels > num_banks,
                 "more channels than L3 banks");
        fatal_if(table_base & (fineTableBytes - 1),
                 "fine-grain table base must be 16 MB aligned");
        fatal_if(_bankBits > 13, "bank field exceeds supported width");
    }

    unsigned numBanks() const { return _numBanks; }
    unsigned numChannels() const { return _numChannels; }
    Addr tableBase() const { return _tableBase; }

    /** Home L3 bank of address @p a. */
    unsigned
    bankOf(Addr a) const
    {
        return (a >> bankShift) & (_numBanks - 1);
    }

    /** GDDR channel of address @p a (low bits of the bank field). */
    unsigned
    channelOf(Addr a) const
    {
        return bankOf(a) & (_numChannels - 1);
    }

    /** DRAM-internal bank within the channel (row-buffer locality). */
    unsigned
    dramBankOf(Addr a) const
    {
        return (a >> (bankShift + _bankBits)) & (dramBanksPerChannel - 1);
    }

    /** DRAM row identifier (for row-hit/miss modelling). */
    std::uint32_t
    dramRowOf(Addr a) const
    {
        return a >> (bankShift + _bankBits + 4);
    }

    /** True if @p a falls inside the fine-grain region table. */
    bool
    inTable(Addr a) const
    {
        return a >= _tableBase && a - _tableBase < fineTableBytes;
    }

    /**
     * `hybrid.tbloff`: byte address of the 32-bit table word holding
     * the region bit for the line containing @p a. Guaranteed to home
     * to bankOf(a).
     */
    Addr
    tableWordAddr(Addr a) const
    {
        return _tableBase + (permuteWordIndex(a >> 10) << 2);
    }

    /** Bit position of line(@p a)'s region bit within its table word. */
    unsigned
    tableBitIndex(Addr a) const
    {
        return (a >> lineShift) & 31;
    }

    /**
     * Inverse of the word-index permutation: given a byte offset into
     * the table, return the base address of the 1 KB block of memory
     * whose region bits that word holds. Used by the directory to
     * recover the target region on snooped table updates, and by the
     * bijectivity tests.
     */
    Addr
    coveredBlockBase(Addr table_addr) const
    {
        panic_if(!inTable(table_addr), "address not inside fine table");
        return unpermuteWordIndex((table_addr - _tableBase) >> 2) << 10;
    }

    static constexpr unsigned bankShift = 11;
    static constexpr unsigned dramBanksPerChannel = 16;

  private:
    /**
     * Bijection over 22-bit word indices (= addr[31:10]). Index bit i
     * corresponds to addr bit i+10 on the input side, and — because the
     * word offset is index<<2 and the base is 16 MB aligned — to table
     * address bit i+2 on the output side. The home-bank field of the
     * table address therefore occupies *output* index bits
     * [9 .. 9+bankBits-1], while the covered line's bank field arrives
     * in *input* index bits [1 .. bankBits]. The permutation moves the
     * bank field accordingly and scatters the remaining bits, in order,
     * over the remaining positions: input bit 0 and bits
     * [bankBits+1 .. 21] pack into a dense "rest" value whose low nine
     * bits land below the output bank field and whose high bits land
     * above it.
     */
    std::uint32_t
    permuteWordIndex(std::uint32_t idx) const
    {
        const std::uint32_t bank = (idx >> 1) & (_numBanks - 1);
        const std::uint32_t rest = (idx & 1u) | (idx >> _bankBits & ~1u);
        return (rest & 0x1FFu) | bank << 9 | (rest >> 9) << (9 + _bankBits);
    }

    std::uint32_t
    unpermuteWordIndex(std::uint32_t out) const
    {
        const std::uint32_t bank = (out >> 9) & (_numBanks - 1);
        const std::uint32_t rest =
            (out & 0x1FFu) | (out >> (9 + _bankBits)) << 9;
        return (rest & 1u) | bank << 1 | (rest & ~1u) << _bankBits;
    }

    unsigned _numBanks;
    unsigned _numChannels;
    unsigned _bankBits;
    Addr _tableBase;
};

} // namespace mem

#endif // COHESION_MEM_ADDRESS_MAP_HH
