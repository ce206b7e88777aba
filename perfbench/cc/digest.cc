#include "digest.hh"

#include <cinttypes>
#include <cstdio>
#include <fstream>

#include "common/hash.hh"

namespace perfbench
{

namespace
{

void
putDouble(std::string &out, const char *name, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s=%a;", name, v);
    out += buf;
}

void
putCount(std::string &out, const char *name, std::uint64_t v)
{
    out += name;
    out += '=';
    out += std::to_string(v);
    out += ';';
}

} // namespace

std::string
outcomeRecord(const mmgpu::sim::PerfResult &perf,
              const mmgpu::joule::EnergyBreakdown &energy,
              RecordFields fields)
{
    std::string out;
    out.reserve(1024);
    out += "config=" + perf.configName + ";workload=" +
           perf.workloadName + ";";
    putDouble(out, "execCycles", perf.execCycles);
    putDouble(out, "execSeconds", perf.execSeconds);
    out += "instrs=";
    for (auto c : perf.instrs)
        out += std::to_string(c) + ",";
    out += ";txns=";
    for (auto c : perf.mem.txns)
        out += std::to_string(c) + ",";
    out += ";";
    putCount(out, "l1SectorMisses", perf.mem.l1SectorMisses);
    putCount(out, "l2SectorMisses", perf.mem.l2SectorMisses);
    putCount(out, "remoteSectors", perf.mem.remoteSectors);
    putCount(out, "localSectors", perf.mem.localSectors);
    putCount(out, "writebackSectors", perf.mem.writebackSectors);
    putCount(out, "byteHops", perf.link.byteHops);
    putCount(out, "messageBytes", perf.link.messageBytes);
    putCount(out, "switchBytes", perf.link.switchBytes);
    putCount(out, "transfers", perf.link.transfers);
    putCount(out, "rerouted", perf.link.rerouted);
    if (fields == RecordFields::All) {
        putCount(out, "arrivals", perf.link.arrivals);
        putCount(out, "deliveredBytes", perf.link.deliveredBytes);
    }
    putCount(out, "reconfigs", perf.link.reconfigs);
    putDouble(out, "smBusyCycles", perf.smBusyCycles);
    putDouble(out, "smStallCycles", perf.smStallCycles);
    putDouble(out, "smOccupiedCycles", perf.smOccupiedCycles);
    putCount(out, "l1Accesses", perf.l1Accesses);
    putCount(out, "l1SectorHits", perf.l1SectorHits);
    putCount(out, "l2Accesses", perf.l2Accesses);
    putCount(out, "l2SectorHits", perf.l2SectorHits);
    putDouble(out, "dramQueueing", perf.dramQueueing);
    putDouble(out, "linkQueueing", perf.linkQueueing);
    putDouble(out, "linkBusy", perf.linkBusy);
    putDouble(out, "dramBusy", perf.dramBusy);
    putDouble(out, "smBusy", energy.smBusy);
    putDouble(out, "smIdle", energy.smIdle);
    putDouble(out, "constant", energy.constant);
    putDouble(out, "shmToReg", energy.shmToReg);
    putDouble(out, "l1ToReg", energy.l1ToReg);
    putDouble(out, "l2ToL1", energy.l2ToL1);
    putDouble(out, "dramToL2", energy.dramToL2);
    putDouble(out, "interModule", energy.interModule);
    return out;
}

std::uint64_t
digestOf(const std::string &text)
{
    mmgpu::Fnv1a hash;
    hash.addBytes(text.data(), text.size());
    return hash.digest();
}

std::uint64_t
outcomeDigest(const mmgpu::sim::PerfResult &perf,
              const mmgpu::joule::EnergyBreakdown &energy,
              RecordFields fields)
{
    return digestOf(outcomeRecord(perf, energy, fields));
}

std::string
blankResponseId(const std::string &line, const std::string &id)
{
    const std::string member = "\"id\":\"" + id + "\"";
    std::size_t at = line.find(member);
    if (at == std::string::npos)
        return line;
    return line.substr(0, at) + "\"id\":\"\"" +
           line.substr(at + member.size());
}

bool
GoldenTable::load(const std::string &path)
{
    digests_.clear();
    std::ifstream in(path);
    if (!in)
        return false;
    std::string line;
    while (std::getline(in, line)) {
        std::size_t tab = line.rfind('\t');
        if (line.empty() || line[0] == '#' || tab == std::string::npos)
            continue;
        digests_[line.substr(0, tab)] =
            std::stoull(line.substr(tab + 1), nullptr, 16);
    }
    return true;
}

bool
GoldenTable::save(const std::string &path) const
{
    std::ofstream out(path);
    out << "# design point<TAB>FNV-1a 64 digest "
           "(perfbench --write-golden)\n";
    for (const auto &[key, digest] : digests_) {
        char buf[24];
        std::snprintf(buf, sizeof(buf), "%016" PRIx64, digest);
        out << key << '\t' << buf << '\n';
    }
    return static_cast<bool>(out);
}

bool
GoldenTable::matches(const std::string &key, std::uint64_t digest) const
{
    auto it = digests_.find(key);
    return it != digests_.end() && it->second == digest;
}

} // namespace perfbench
