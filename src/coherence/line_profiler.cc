#include "coherence/line_profiler.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <map>
#include <vector>

#include "sim/logging.hh"

namespace coherence {

const char *
LineProfiler::patternName(Pattern p)
{
    switch (p) {
      case Pattern::TransitionChurn:  return "transition_churn";
      case Pattern::Private:          return "private";
      case Pattern::ReadShared:       return "read_shared";
      case Pattern::Migratory:        return "migratory";
      case Pattern::ProducerConsumer: return "producer_consumer";
      case Pattern::numPatterns:      break;
    }
    return "unknown";
}

unsigned
LineProfiler::LineStats::sharerCount() const
{
    return std::popcount(readers[0] | writers[0]) +
           std::popcount(readers[1] | writers[1]);
}

unsigned
LineProfiler::LineStats::writerCount() const
{
    return std::popcount(writers[0]) + std::popcount(writers[1]);
}

unsigned
LineProfiler::LineStats::readerCount() const
{
    return std::popcount(readers[0]) + std::popcount(readers[1]);
}

namespace {

void
setCluster(std::uint64_t set[2], std::uint32_t cluster)
{
    unsigned bit = cluster & 127;
    set[bit >> 6] |= std::uint64_t(1) << (bit & 63);
}

} // namespace

LineProfiler::LineStats &
LineProfiler::stats(mem::Addr line)
{
    std::uint32_t i = _index.find(line);
    if (i == sim::noSlot) {
        i = static_cast<std::uint32_t>(_lines.size());
        _index.insert(line, i);
        _lines.emplace_back();
        _bases.push_back(line);
    }
    return _lines[i];
}

void
LineProfiler::observe(sim::FlightRecorder::Ev kind, mem::Addr line,
                      std::uint8_t a, std::uint32_t b)
{
    using Ev = sim::FlightRecorder::Ev;
    using Step = sim::FlightRecorder::Step;

    switch (kind) {
      case Ev::MsgRecv: {
        // Bank-side arrival is the serialization point: a is the
        // ReqType, b the requesting cluster.
        LineStats &s = stats(line);
        switch (static_cast<arch::ReqType>(a)) {
          case arch::ReqType::Read:
          case arch::ReqType::Instr:
            ++s.reads;
            setCluster(s.readers, b);
            break;
          case arch::ReqType::Write:
          case arch::ReqType::Atomic:
            ++s.writes;
            setCluster(s.writers, b);
            if (s.lastWriter != (b & 0xFFFF)) {
                if (s.lastWriter != 0xFFFF)
                    ++s.ownerChanges;
                s.lastWriter = static_cast<std::uint16_t>(b & 0xFFFF);
            }
            break;
          case arch::ReqType::Eviction:
          case arch::ReqType::Flush:
          case arch::ReqType::WriteRelease:
            ++s.writebacks;
            // A dirty SWcc copy implies the cluster wrote the line.
            setCluster(s.writers, b);
            break;
          case arch::ReqType::ReadRelease:
            break;
        }
        break;
      }
      case Ev::SwccFlush:
        ++stats(line).flushes;
        break;
      case Ev::ProbeSend:
        ++stats(line).probes;
        break;
      case Ev::TransBegin:
        ++stats(line).transitions;
        break;
      case Ev::TransStep:
        if (static_cast<Step>(a) == Step::Conflict)
            ++stats(line).conflicts;
        break;
      default:
        break;
    }
}

LineProfiler::Pattern
LineProfiler::classify(const LineStats &s) const
{
    if (s.transitions >= churnThreshold)
        return Pattern::TransitionChurn;
    if (s.sharerCount() <= 1)
        return Pattern::Private;
    if (s.writerCount() == 0)
        return Pattern::ReadShared;
    // Clusters that read the line but never wrote it: their presence
    // makes the relationship producer->consumer; without them every
    // sharer writes, i.e. the line migrates with the computation.
    std::uint64_t ro0 = s.readers[0] & ~s.writers[0];
    std::uint64_t ro1 = s.readers[1] & ~s.writers[1];
    if (ro0 | ro1)
        return Pattern::ProducerConsumer;
    return Pattern::Migratory;
}

std::string
LineProfiler::regionName(mem::Addr line) const
{
    for (const auto &r : _regions.regions()) {
        if (r.contains(line))
            return cohesion::regionKindName(r.kind);
    }
    return "heap";
}

void
LineProfiler::registerStats(sim::StatRegistry &reg,
                            const std::string &prefix) const
{
    reg.addScalar(prefix + ".tracked",
                  static_cast<double>(_lines.size()));

    std::array<std::uint64_t, numPatterns> classes{};
    std::map<std::string, std::array<std::uint64_t, numPatterns>> regions;
    std::vector<std::pair<mem::Addr, const LineStats *>> contended;

    for (std::size_t i = 0; i < _lines.size(); ++i) {
        const mem::Addr addr = _bases[i];
        const LineStats &s = _lines[i];
        Pattern p = classify(s);
        classes[static_cast<unsigned>(p)] += 1;
        regions[regionName(addr)][static_cast<unsigned>(p)] += 1;
        if (s.sharerCount() >= 2 || s.transitions > 0)
            contended.emplace_back(addr, &s);
    }

    for (unsigned p = 0; p < numPatterns; ++p) {
        reg.addScalar(sim::cat(prefix, ".class.",
                               patternName(static_cast<Pattern>(p))),
                      static_cast<double>(classes[p]));
    }
    for (const auto &[rname, counts] : regions) {
        for (unsigned p = 0; p < numPatterns; ++p) {
            if (!counts[p])
                continue;
            reg.addScalar(sim::cat(prefix, ".region.", rname, ".",
                                   patternName(static_cast<Pattern>(p))),
                          static_cast<double>(counts[p]));
        }
    }

    std::sort(contended.begin(), contended.end(),
              [](const auto &x, const auto &y) {
                  std::uint64_t sx = x.second->score();
                  std::uint64_t sy = y.second->score();
                  return sx != sy ? sx > sy : x.first < y.first;
              });
    unsigned n = std::min<std::size_t>(_topN, contended.size());
    reg.addScalar(prefix + ".contended", static_cast<double>(contended.size()));
    for (unsigned i = 0; i < n; ++i) {
        const auto &[addr, s] = contended[i];
        std::string base = sim::cat(prefix, ".top", i, ".");
        reg.addScalar(base + "addr", static_cast<double>(addr));
        reg.addScalar(base + "reads", static_cast<double>(s->reads));
        reg.addScalar(base + "writes", static_cast<double>(s->writes));
        reg.addScalar(base + "sharers",
                      static_cast<double>(s->sharerCount()));
        reg.addScalar(base + "transitions",
                      static_cast<double>(s->transitions));
        reg.addScalar(base + "score", static_cast<double>(s->score()));
        reg.addScalar(base + "pattern",
                      static_cast<double>(classify(*s)));
    }
}

} // namespace coherence
