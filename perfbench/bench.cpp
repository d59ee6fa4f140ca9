/**
 * @file
 * Helpers shared by the benchmark's workloads (see bench.h).
 */

#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "telemetry/stat_registry.h"

namespace perfbench
{

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
quantile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = p * double(v.size() - 1);
    size_t lo = size_t(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

std::string
digestOf(const std::string &text)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

std::string
statsDigest(const crisp::CoreStats &s, const std::string &label)
{
    crisp::StatRegistry reg;
    s.registerInto(reg, label);
    return digestOf(reg.toJson());
}

double
procStatus(int pid, const char *field)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    const std::string want = std::string(field) + ":";
    while (std::getline(in, line))
        if (line.rfind(want, 0) == 0)
            return std::strtod(line.c_str() + want.size(), nullptr);
    return -1;
}

double
procFdCount(int pid)
{
    std::error_code ec;
    std::filesystem::directory_iterator it(
        "/proc/" + std::to_string(pid) + "/fd", ec);
    if (ec)
        return -1;
    double n = 0;
    for (; it != std::filesystem::directory_iterator(); it.increment(ec))
        ++n;
    return n;
}

std::string
expectedText(const crisp::JsonValue *table, const std::string &key)
{
    if (!table || !table->isObject() || !table->has(key) ||
        !table->at(key).isString())
        return "";
    return table->at(key).text;
}

double
expectedNumber(const crisp::JsonValue *table, const std::string &key)
{
    if (!table || !table->isObject() || !table->has(key) ||
        !table->at(key).isNumber())
        return std::nan("");
    return table->at(key).number;
}

} // namespace perfbench
