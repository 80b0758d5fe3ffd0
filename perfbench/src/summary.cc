#include "summary.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "harness/sweep.hh"

namespace perfbench
{

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
reportPercentile(size_t n)
{
    static const double ladder[] = {99.9, 99.0, 95.0, 90.0, 75.0};
    for (double p : ladder) {
        // Samples strictly beyond the p-th percentile.
        const double beyond =
            std::floor(static_cast<double>(n) * (100.0 - p) / 100.0 +
                       1e-9);
        if (beyond >= 10.0)
            return p;
    }
    return 0.0;
}

std::string
describeTiming(const std::vector<double> &samples, const std::string &unit)
{
    char buf[160];
    const double p = reportPercentile(samples.size());
    if (p > 0.0) {
        std::snprintf(buf, sizeof(buf), "median %.4g %s, p%g %.4g %s (n=%zu)",
                      median(samples), unit.c_str(), p,
                      quantile(samples, p / 100.0), unit.c_str(),
                      samples.size());
    } else {
        std::snprintf(buf, sizeof(buf),
                      "median %.4g %s (n=%zu; too few for a percentile)",
                      median(samples), unit.c_str(), samples.size());
    }
    return buf;
}

uint64_t
statsDigest(const tproc::ProcessorStats &s)
{
    uint64_t h = 1469598103934665603ull;
    auto mix = [&h](const void *p, size_t n) {
        const auto *b = static_cast<const unsigned char *>(p);
        for (size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 1099511628211ull;
        }
    };
    const tproc::StatDict dict = tproc::harness::statsToDict(s);
    for (const tproc::Stat &e : dict.entries()) {
        mix(e.name.data(), e.name.size());
        const uint64_t v = static_cast<uint64_t>(e.value);
        mix(&v, sizeof(v));
    }
    return h;
}

std::string
hexDigest(uint64_t d)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(d));
    return buf;
}

bool
validMetricName(const std::string &name)
{
    if (name.empty() || name.size() > 64 ||
        !std::isalnum(static_cast<unsigned char>(name[0])))
        return false;
    for (char c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c)) &&
            std::strchr("_.-", c) == nullptr)
            return false;
    }
    return true;
}

} // namespace perfbench
