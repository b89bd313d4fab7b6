/**
 * @file
 * Crash-resilient campaign results: a deterministic per-job JSON
 * rendering, an append-only JSON-lines journal of finished jobs, and
 * a results-document composer that stitches journaled and freshly-run
 * jobs into one byte-stable file.
 *
 * The invariant the resume feature rests on: the final results
 * document is built purely from per-job object strings (in submission
 * order) plus a fixed wrapper, and the per-job string for a given job
 * is identical whether it was just computed or read back from a
 * journal written by an earlier, interrupted campaign. A resumed
 * campaign therefore reproduces the uninterrupted campaign's results
 * file byte for byte.
 */

#ifndef COHESION_HARNESS_JOURNAL_HH
#define COHESION_HARNESS_JOURNAL_HH

#include <fstream>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "harness/sweep.hh"

namespace harness {

/**
 * Deterministic JSON object for one finished job: the fields of the
 * cohesion-sweep-results-v2 schema minus the per-job "host" block
 * (host wall-clock is the one nondeterministic part of a results
 * file and must not enter the byte-identity contract).
 */
std::string jobObjectJson(const sim::JobResult &r);

/**
 * The fields of jobObjectJson without the enclosing braces, so a
 * writer that adds its own fields (cohesion-sweep's unjournaled
 * "host" block) renders the shared ones from this one place.
 */
void writeJobFields(std::ostream &os, const sim::JobResult &r);

/**
 * Compose the deterministic results document from per-job object
 * strings in submission order. The wrapper carries the same schema
 * tag; the top-level "host" aggregate is omitted for the same reason
 * the per-job blocks are.
 */
void writeResultsDoc(std::ostream &os,
                     const std::vector<std::string> &job_objects);

/**
 * Append-only JSON-lines journal of finished jobs. Line 1 is a schema
 * header; every further line is {"label": ..., "job": {...}} flushed
 * as soon as the job completes, so a killed campaign loses at most
 * the in-flight jobs.
 */
class ResultsJournal
{
  public:
    /** Open @p path for appending (created if missing; a schema header
     *  is written only when the file is new/empty). */
    bool open(const std::string &path, std::string *err);

    bool isOpen() const { return _out.is_open(); }

    /** Append one finished job and flush. */
    void append(const std::string &label, const std::string &job_object);

    void close() { _out.close(); }

    /**
     * Load journaled jobs: label -> per-job object string (verbatim
     * bytes, so re-emitted documents stay byte-stable). Tolerates a
     * truncated or garbled trailing line — the signature of a crash
     * mid-append — by ignoring any line that does not parse. A missing
     * file is an empty journal, not an error.
     */
    static bool load(const std::string &path,
                     std::map<std::string, std::string> *out,
                     std::string *err);

  private:
    std::ofstream _out;
};

} // namespace harness

#endif // COHESION_HARNESS_JOURNAL_HH
