/**
 * @file
 * cohesion-trace: decode a flight-recorder dump (written by
 * cohesion-sim --recorder-dump, or a CI post-mortem artifact) into a
 * human-readable narrative, optionally filtered to one line, one
 * causal transaction, or a tick window, and optionally exported as a
 * Chrome trace-event / Perfetto JSON view.
 *
 *   cohesion-trace run.cfr
 *   cohesion-trace --line 0x84c0 run.cfr
 *   cohesion-trace --txn 17 run.cfr
 *   cohesion-trace --tick-range 1000:2000 --perfetto out.json run.cfr
 *   cohesion-trace --critical-path --txn 17 run.cfr
 *
 * Options:
 *   --line 0xADDR    only events touching ADDR's cache line
 *   --txn N          only the causal chain of message id N (includes
 *                    the bank transactions TxnBegin binds to it)
 *   --tick-range A:B only events with A <= tick <= B
 *   --perfetto FILE  write the filtered events as trace-event JSON
 *                    (arch::renderRecord, the renderer behind
 *                    cohesion-sim --trace-json)
 *   --limit N        print at most the last N matching events
 *   --quiet          suppress the narrative (useful with --perfetto)
 *   --critical-path  with --txn N: walk the line-lock blocker chain of
 *                    message N (who held the line while N's bank
 *                    transaction waited, recursively) and print a
 *                    waterfall; with --perfetto, write the chain as
 *                    nested duration events instead of instants.
 *                    The walk reads only the dump.
 *
 * Exit codes: 0 ok, 1 usage / output error, 3 dump file missing or
 * unreadable, 4 dump corrupt or truncated. Scripts can tell "the run
 * never produced a dump" from "the dump is damaged".
 */

#include <cstdint>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "arch/flight_decode.hh"
#include "mem/types.hh"
#include "sim/flight_recorder.hh"
#include "sim/trace_json.hh"

namespace {

using sim::FlightRecorder;

[[noreturn]] void
usage(int code)
{
    std::cout <<
        "usage: cohesion-trace [--line 0xADDR] [--txn N]\n"
        "                      [--tick-range A:B] [--perfetto FILE]\n"
        "                      [--limit N] [--quiet]\n"
        "                      [--critical-path] DUMP.cfr\n";
    std::exit(code);
}

/** One bank transaction reconstructed from its TxnBegin/TxnEnd pair,
 *  keyed by (bank component, bank-local sequence). */
struct BankTxn
{
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
    std::uint32_t line = 0;
    std::uint32_t msg = 0; ///< cluster msgId bound by TxnBegin::b
    std::uint16_t comp = 0;
    bool ended = false;
};

using TxnKey = std::pair<std::uint16_t, std::uint32_t>;

/** One hop of the extracted critical path. */
struct PathHop
{
    TxnKey key;
    BankTxn txn;
    std::uint64_t send = 0; ///< MsgSend tick (0 if wrapped out)
    std::uint64_t recv = 0; ///< RespRecv tick (0 if wrapped out)
    std::uint64_t wait = 0; ///< begin -> blocker-release wait, cycles
};

/**
 * Walk the line-lock blocker chain starting at message @p root_msg:
 * the bank transaction bound to it, then whichever older transaction
 * on the same line at the same bank retired last while ours was in
 * flight (that retirement is what released the line lock), and so on.
 * The walk is bounded by a seen-set and a depth cap so a wrapped or
 * adversarial dump cannot loop. Returns the hops root-first; empty if
 * the dump holds no bank transaction for @p root_msg.
 */
std::vector<PathHop>
extractCriticalPath(const std::vector<FlightRecorder::Record> &records,
                    std::uint64_t root_msg)
{
    constexpr unsigned maxDepth = 32;
    std::map<TxnKey, BankTxn> txns;
    std::map<std::uint32_t, std::uint64_t> send_tick, recv_tick;
    for (const auto &r : records) {
        switch (static_cast<FlightRecorder::Ev>(r.kind)) {
          case FlightRecorder::Ev::TxnBegin: {
            BankTxn &t = txns[{r.comp, r.txn}];
            t.begin = r.tick;
            t.line = r.line;
            t.msg = r.b;
            t.comp = r.comp;
            break;
          }
          case FlightRecorder::Ev::TxnEnd: {
            BankTxn &t = txns[{r.comp, r.txn}];
            t.end = r.tick;
            t.ended = true;
            break;
          }
          case FlightRecorder::Ev::MsgSend:
            if (!send_tick.count(r.txn))
                send_tick[r.txn] = r.tick;
            break;
          case FlightRecorder::Ev::RespRecv:
            recv_tick[r.txn] = r.tick;
            break;
          default:
            break;
        }
    }

    auto txnForMsg = [&](std::uint64_t msg) {
        // msgIds are cluster-local, so a very long dump could bind two
        // transactions to one id; the earliest begin wins (stable and
        // deterministic, and collisions need ~4G messages per cluster).
        auto best = txns.end();
        for (auto it = txns.begin(); it != txns.end(); ++it) {
            if (it->second.msg != msg)
                continue;
            if (best == txns.end() ||
                it->second.begin < best->second.begin) {
                best = it;
            }
        }
        return best;
    };

    std::vector<PathHop> path;
    std::set<TxnKey> seen;
    auto cur = txnForMsg(root_msg);
    while (cur != txns.end() && path.size() < maxDepth &&
           seen.insert(cur->first).second) {
        PathHop hop;
        hop.key = cur->first;
        hop.txn = cur->second;
        if (auto it = send_tick.find(hop.txn.msg); it != send_tick.end())
            hop.send = it->second;
        if (auto it = recv_tick.find(hop.txn.msg); it != recv_tick.end())
            hop.recv = it->second;

        // The blocker: among transactions at the same bank on the same
        // line that began before ours, the one whose retirement falls
        // latest inside our span — its TxnEnd is the moment the line
        // lock was handed to us.
        auto blocker = txns.end();
        std::uint64_t span_end =
            hop.txn.ended ? hop.txn.end : ~std::uint64_t(0);
        for (auto it = txns.begin(); it != txns.end(); ++it) {
            if (it->first == cur->first || !it->second.ended)
                continue;
            if (it->second.comp != hop.txn.comp ||
                it->second.line != hop.txn.line)
                continue;
            if (it->second.begin > hop.txn.begin)
                continue;
            if (it->second.end < hop.txn.begin ||
                it->second.end > span_end)
                continue;
            if (blocker == txns.end() ||
                it->second.end > blocker->second.end) {
                blocker = it;
            }
        }
        if (blocker != txns.end())
            hop.wait = blocker->second.end - hop.txn.begin;
        path.push_back(hop);
        cur = blocker;
    }
    return path;
}

void
printCriticalPath(std::ostream &os, const std::vector<PathHop> &path,
                  std::uint64_t root_msg)
{
    if (path.empty()) {
        os << "critical path: no bank transaction bound to message "
           << root_msg << " (wrapped out of the ring?)\n";
        return;
    }
    os << "critical path for message " << root_msg << " (" << path.size()
       << " hop" << (path.size() == 1 ? "" : "s") << "):\n";
    for (std::size_t i = 0; i < path.size(); ++i) {
        const PathHop &h = path[i];
        os << "  [" << i << "] msg " << h.txn.msg << " line 0x"
           << std::hex << h.txn.line << std::dec << " "
           << FlightRecorder::compName(h.txn.comp) << " txn#"
           << h.key.second;
        if (h.send)
            os << " send@" << h.send;
        os << " bank " << h.txn.begin << "..";
        if (h.txn.ended)
            os << h.txn.end << " (" << h.txn.end - h.txn.begin << "cy)";
        else
            os << "? (never retired)";
        if (h.recv)
            os << " resp@" << h.recv;
        os << '\n';
        if (i + 1 < path.size()) {
            os << "      waited " << h.wait
               << "cy for the line lock, released by:\n";
        } else if (h.wait) {
            os << "      waited " << h.wait
               << "cy for the line lock (blocker beyond depth cap or"
                  " wrapped)\n";
        }
    }
    const PathHop &root = path.front();
    if (root.send && root.recv && root.recv > root.send) {
        std::uint64_t e2e = root.recv - root.send;
        std::uint64_t chain = 0;
        for (const PathHop &h : path)
            chain += h.wait;
        os << "  end-to-end " << e2e << "cy, of which " << chain
           << "cy (" << std::fixed << std::setprecision(1)
           << (e2e ? 100.0 * double(chain) / double(e2e) : 0.0)
           << std::defaultfloat
           << "%) is transitive line-lock serialization\n";
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::string path;
    mem::Addr line = ~mem::Addr(0);
    std::uint64_t txn = ~std::uint64_t(0);
    std::uint64_t tick_lo = 0, tick_hi = ~std::uint64_t(0);
    std::string perfetto;
    std::size_t limit = 0;
    bool quiet = false;
    bool critical_path = false;

    for (int i = 1; i < argc; ++i) {
        auto next = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::cerr << flag << " requires a value\n";
                usage(1);
            }
            return argv[++i];
        };
        if (!std::strcmp(argv[i], "--line")) {
            line = mem::lineBase(
                std::strtoull(next("--line"), nullptr, 0));
        } else if (!std::strcmp(argv[i], "--txn")) {
            txn = std::strtoull(next("--txn"), nullptr, 0);
        } else if (!std::strcmp(argv[i], "--tick-range")) {
            std::string v = next("--tick-range");
            std::size_t colon = v.find(':');
            if (colon == std::string::npos) {
                std::cerr << "--tick-range wants A:B\n";
                usage(1);
            }
            tick_lo = std::strtoull(v.c_str(), nullptr, 0);
            tick_hi = std::strtoull(v.c_str() + colon + 1, nullptr, 0);
        } else if (!std::strcmp(argv[i], "--perfetto")) {
            perfetto = next("--perfetto");
        } else if (!std::strcmp(argv[i], "--limit")) {
            limit = std::strtoull(next("--limit"), nullptr, 0);
        } else if (!std::strcmp(argv[i], "--quiet")) {
            quiet = true;
        } else if (!std::strcmp(argv[i], "--critical-path")) {
            critical_path = true;
        } else if (!std::strcmp(argv[i], "--help")) {
            usage(0);
        } else if (argv[i][0] == '-') {
            std::cerr << "unknown option: " << argv[i] << '\n';
            usage(1);
        } else {
            path = argv[i];
        }
    }
    if (path.empty()) {
        std::cerr << "missing dump file\n";
        usage(1);
    }
    if (critical_path && txn == ~std::uint64_t(0)) {
        std::cerr << "--critical-path needs --txn N (the message id "
                     "to start the walk from)\n";
        usage(1);
    }

    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::cerr << "cohesion-trace: cannot open " << path << '\n';
        return 3;
    }
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    std::vector<FlightRecorder::Record> records;
    std::string err;
    std::uint64_t total = 0;
    if (!FlightRecorder::deserialize(bytes, &records, &err, &total)) {
        std::cerr << "cohesion-trace: " << path << ": " << err << '\n';
        return 4;
    }

    if (critical_path) {
        std::vector<PathHop> cpath = extractCriticalPath(records, txn);
        if (!quiet)
            printCriticalPath(std::cout, cpath, txn);
        if (!perfetto.empty()) {
            std::ofstream out(perfetto);
            if (!out) {
                std::cerr << "cannot open " << perfetto << '\n';
                return 1;
            }
            sim::TraceJsonWriter w(out);
            // One track per hop depth: the root's span on top, each
            // blocker one row down, so the staircase reads as a
            // waterfall in ui.perfetto.dev.
            for (std::size_t i = 0; i < cpath.size(); ++i) {
                const PathHop &h = cpath[i];
                int tid = 300 + static_cast<int>(i);
                w.threadName(tid, "critical-path[" + std::to_string(i) +
                                      "]");
                std::uint64_t lo = h.send ? h.send : h.txn.begin;
                std::uint64_t hi = h.recv             ? h.recv
                                   : h.txn.ended      ? h.txn.end
                                                      : h.txn.begin;
                std::string name =
                    "msg " + std::to_string(h.txn.msg) + " " +
                    FlightRecorder::compName(h.txn.comp) + " txn#" +
                    std::to_string(h.key.second);
                w.complete(lo, hi > lo ? hi - lo : 0, tid, name,
                           "critical-path");
                if (h.txn.ended) {
                    w.complete(h.txn.begin, h.txn.end - h.txn.begin,
                               tid, "bank span", "critical-path");
                }
            }
            w.finish();
            if (!quiet)
                std::cout << "wrote " << w.events()
                          << " trace events to " << perfetto << '\n';
        }
        return cpath.empty() ? 1 : 0;
    }

    // --txn N follows the causal chain: every event stamped with the
    // message id, plus the bank transactions TxnBegin bound to it
    // (their TxnBegin/TxnEnd records carry the bank-local sequence in
    // txn and the message id in b).
    std::set<std::uint64_t> bank_txns;
    if (txn != ~std::uint64_t(0)) {
        for (const auto &r : records) {
            auto kind = static_cast<FlightRecorder::Ev>(r.kind);
            if ((kind == FlightRecorder::Ev::TxnBegin ||
                 kind == FlightRecorder::Ev::TxnEnd) &&
                r.b == txn) {
                bank_txns.insert(r.txn);
            }
        }
    }

    std::vector<const FlightRecorder::Record *> matched;
    for (const auto &r : records) {
        if (r.tick < tick_lo || r.tick > tick_hi)
            continue;
        if (line != ~mem::Addr(0) && r.line != line)
            continue;
        if (txn != ~std::uint64_t(0)) {
            auto kind = static_cast<FlightRecorder::Ev>(r.kind);
            bool bound = (kind == FlightRecorder::Ev::TxnBegin ||
                          kind == FlightRecorder::Ev::TxnEnd)
                             ? r.b == txn || bank_txns.count(r.txn)
                             : r.txn == txn;
            if (!bound)
                continue;
        }
        matched.push_back(&r);
    }

    if (!quiet) {
        std::cout << path << ": " << records.size() << " records ("
                  << total << " recorded";
        if (total > records.size())
            std::cout << ", " << (total - records.size())
                      << " overwritten by ring wrap";
        std::cout << "), " << matched.size() << " match\n";
        std::size_t first =
            limit && matched.size() > limit ? matched.size() - limit : 0;
        if (first)
            std::cout << "  ... " << first << " earlier omitted\n";
        for (std::size_t i = first; i < matched.size(); ++i)
            std::cout << "  " << arch::describeRecord(*matched[i]) << '\n';
    }

    if (!perfetto.empty()) {
        std::ofstream out(perfetto);
        if (!out) {
            std::cerr << "cannot open " << perfetto << '\n';
            return 1;
        }
        sim::TraceJsonWriter w(out);
        std::set<std::uint16_t> named;
        for (const FlightRecorder::Record *r : matched) {
            if (named.insert(r->comp).second) {
                w.threadName(arch::traceTid(r->comp),
                             FlightRecorder::compName(r->comp));
            }
            arch::renderRecord(w, *r);
        }
        w.finish();
        if (!quiet)
            std::cout << "wrote " << w.events() << " trace events to "
                      << perfetto << '\n';
    }
    return 0;
}
