#include "runtime/trace.hh"

#include <fstream>
#include <sstream>

#include "common/log.hh"

namespace streampim
{

namespace
{

const char *
kindMnemonic(VpcKind k)
{
    return vpcKindName(k);
}

VpcKind
kindFromMnemonic(const std::string &s)
{
    if (s == "MUL")
        return VpcKind::Mul;
    if (s == "SMUL")
        return VpcKind::Smul;
    if (s == "ADD")
        return VpcKind::Add;
    if (s == "TRAN")
        return VpcKind::Tran;
    SPIM_FATAL("unknown VPC mnemonic '", s, "' in trace");
}

std::string
depField(std::uint32_t dep)
{
    return dep == kNoBatch ? "-" : std::to_string(dep);
}

std::uint32_t
parseDep(const std::string &s)
{
    if (s == "-")
        return kNoBatch;
    try {
        return std::uint32_t(std::stoul(s));
    } catch (...) {
        SPIM_FATAL("bad dependency field '", s, "' in trace");
    }
}

} // namespace

void
writeTrace(const VpcTrace &trace, std::ostream &os)
{
    os << "STPIMTRACE 1\n";
    os << "workload " << (trace.workload.empty() ? "unnamed"
                                                 : trace.workload)
       << "\n";
    os << "batches " << trace.schedule.batchCount() << "\n";
    trace.schedule.forEachBatch([&os](std::uint32_t,
                                      const VpcBatch &b) {
        os << "B " << kindMnemonic(b.kind) << ' ' << b.subarray
           << ' ' << b.dstSubarray << ' ' << b.vpcCount << ' '
           << b.vectorLen << ' ' << depField(b.depA) << ' '
           << depField(b.depB) << ' ' << (b.barrier ? 1 : 0)
           << '\n';
    });
}

VpcTrace
readTrace(std::istream &is)
{
    VpcTrace trace;
    std::string line;
    std::size_t declared = 0;
    bool header_seen = false;

    while (std::getline(is, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string tag;
        ls >> tag;
        if (!header_seen) {
            unsigned version = 0;
            if (tag != "STPIMTRACE" || !(ls >> version) ||
                version != 1)
                SPIM_FATAL("not a STPIMTRACE v1 file");
            header_seen = true;
            continue;
        }
        if (tag == "workload") {
            ls >> trace.workload;
        } else if (tag == "batches") {
            ls >> declared;
        } else if (tag == "B") {
            std::string kind, dep_a, dep_b;
            VpcBatch b;
            int barrier = 0;
            if (!(ls >> kind >> b.subarray >> b.dstSubarray >>
                  b.vpcCount >> b.vectorLen >> dep_a >> dep_b >>
                  barrier))
                SPIM_FATAL("malformed batch line: '", line, "'");
            b.kind = kindFromMnemonic(kind);
            b.depA = parseDep(dep_a);
            b.depB = parseDep(dep_b);
            b.barrier = barrier != 0;
            const std::uint64_t index = trace.schedule.batchCount();
            if ((b.depA != kNoBatch && b.depA >= index) ||
                (b.depB != kNoBatch && b.depB >= index))
                SPIM_FATAL("forward dependency in trace line: '",
                           line, "'");
            trace.schedule.push(b);
        } else {
            SPIM_FATAL("unknown trace directive '", tag, "'");
        }
    }
    if (!header_seen)
        SPIM_FATAL("empty trace input");
    if (declared != trace.schedule.batchCount())
        SPIM_FATAL("trace declares ", declared, " batches but has ",
                   trace.schedule.batchCount());
    return trace;
}

void
saveTraceFile(const VpcTrace &trace, const std::string &path)
{
    std::ofstream os(path);
    if (!os)
        SPIM_FATAL("cannot open '", path, "' for writing");
    writeTrace(trace, os);
}

VpcTrace
loadTraceFile(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        SPIM_FATAL("cannot open trace file '", path, "'");
    return readTrace(is);
}

} // namespace streampim
