#include "harness/journal.hh"

#include <ostream>
#include <sstream>

#include "sim/json.hh"

namespace harness {

void
writeJobFields(std::ostream &os, const sim::JobResult &r)
{
    os << "\"label\": ";
    sim::writeJsonString(os, r.label);
    os << ", \"outcome\": ";
    sim::writeJsonString(os, sim::jobOutcomeName(r.outcome));
    if (r.ok()) {
        os << ", \"cycles\": " << r.run.cycles
           << ", \"events\": " << r.run.eventsRun
           << ", \"instructions\": " << r.run.instructions
           << ", \"msgs\": " << r.run.msgs.total()
           << ", \"dir_evictions\": " << r.run.dirEvictions
           << ", \"l2_misses\": " << r.run.l2Misses
           << ", \"resp_p50\": " << r.run.respLatency.p50()
           << ", \"resp_p95\": " << r.run.respLatency.p95()
           << ", \"resp_p99\": " << r.run.respLatency.p99()
           << ", \"seed\": " << r.run.seed;
        if (r.run.faultSeed) {
            os << ", \"faults_injected\": " << r.run.faultsInjected
               << ", \"faults_recovered\": " << r.run.faultsRecovered;
        }
    } else {
        os << ", \"what\": ";
        sim::writeJsonString(os, r.what);
        os << ", \"log\": ";
        sim::writeJsonString(os, r.log);
    }
}

std::string
jobObjectJson(const sim::JobResult &r)
{
    std::ostringstream os;
    os << "{";
    writeJobFields(os, r);
    os << "}";
    return os.str();
}

void
writeResultsDoc(std::ostream &os,
                const std::vector<std::string> &job_objects)
{
    os << "{\n  \"schema\": \"cohesion-sweep-results-v2\",\n"
       << "  \"jobs\": [\n";
    for (std::size_t i = 0; i < job_objects.size(); ++i) {
        os << "    " << job_objects[i]
           << (i + 1 < job_objects.size() ? ",\n" : "\n");
    }
    os << "  ]\n}\n";
}

bool
ResultsJournal::open(const std::string &path, std::string *err)
{
    bool fresh = false;
    {
        std::ifstream probe(path);
        fresh = !probe || probe.peek() == std::ifstream::traits_type::eof();
    }
    _out.open(path, std::ios::app);
    if (!_out) {
        if (err)
            *err = "cannot open journal " + path;
        return false;
    }
    if (fresh) {
        _out << "{\"schema\": \"cohesion-sweep-journal-v1\"}\n";
        _out.flush();
    }
    return true;
}

void
ResultsJournal::append(const std::string &label,
                       const std::string &job_object)
{
    _out << "{\"label\": ";
    sim::writeJsonString(_out, label);
    _out << ", \"job\": " << job_object << "}\n";
    // One job per line, flushed immediately: a kill between appends
    // costs at most the jobs still in flight.
    _out.flush();
}

bool
ResultsJournal::load(const std::string &path,
                     std::map<std::string, std::string> *out,
                     std::string *err)
{
    out->clear();
    std::ifstream in(path);
    if (!in)
        return true; // no journal yet: nothing to resume, not an error
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        sim::JsonValue doc;
        std::string perr;
        if (!sim::parseJson(line, &doc, &perr))
            continue; // truncated/garbled tail of a killed campaign
        if (!doc.isObject())
            continue;
        const sim::JsonValue *label = doc.find("label");
        const sim::JsonValue *job = doc.find("job");
        if (!label || !label->isString() || !job || !job->isObject())
            continue; // header line, or foreign content
        // Recover the job object *bytes* rather than re-dumping the
        // parsed value: byte-stability of resumed results depends on
        // replaying exactly what was journaled. The marker below
        // cannot occur inside the label literal (its quotes are
        // escaped), so the first match is the real field boundary.
        static const std::string marker = "\", \"job\": ";
        std::string::size_type pos = line.find(marker);
        if (pos == std::string::npos || line.back() != '}')
            continue;
        pos += marker.size();
        (*out)[label->str] = line.substr(pos, line.size() - pos - 1);
    }
    (void)err;
    return true;
}

} // namespace harness
