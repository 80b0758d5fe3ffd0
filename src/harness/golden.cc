#include "harness/golden.hh"

#include <cctype>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace tproc::harness
{

namespace
{

std::string
sanitize(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        const auto uc = static_cast<unsigned char>(c);
        out.push_back(std::isalnum(uc) || c == '.' || c == '-' ? c : '_');
    }
    return out;
}

} // anonymous namespace

std::string
goldenFileName(const SweepPoint &p)
{
    if (p.useConfig)
        return sanitize(p.label()) + ".json";
    return sanitize(p.workload) + "__" + sanitize(p.model) + ".json";
}

std::vector<GoldenDrift>
diffStatDicts(const StatDict &expected, const StatDict &actual)
{
    std::vector<GoldenDrift> drift;
    for (const Stat &e : expected.entries()) {
        GoldenDrift d;
        d.key = e.name;
        d.expected = e.value;
        d.inExpected = true;
        d.inActual = actual.has(e.name);
        d.actual = actual.get(e.name);
        if (!d.inActual || d.actual != d.expected)
            drift.push_back(d);
    }
    for (const Stat &a : actual.entries()) {
        if (expected.has(a.name))
            continue;
        GoldenDrift d;
        d.key = a.name;
        d.actual = a.value;
        d.inActual = true;
        drift.push_back(d);
    }
    return drift;
}

std::string
describeDrift(const GoldenDrift &d)
{
    auto value = [](bool present, double v) {
        return present ? jsonNumber(v) : std::string("<absent>");
    };
    return d.key + ": golden " + value(d.inExpected, d.expected) +
        ", got " + value(d.inActual, d.actual);
}

void
writeGoldenFile(const std::string &path, const StatDict &stats)
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        throw std::runtime_error("cannot write golden file " + path);
    stats.writeJson(out, 0);
    out << '\n';
    out.flush();
    if (!out.good())
        throw std::runtime_error("I/O error writing golden file " + path);
}

StatDict
readGoldenFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read golden file " + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    try {
        return statDictFromJson(parseJson(ss.str()));
    } catch (const std::exception &e) {
        throw std::runtime_error(path + ": " + e.what());
    }
}

} // namespace tproc::harness
