#include "src/util/cli.h"

#include <cstdlib>
#include <sstream>

namespace rhtm
{

CliOptions::CliOptions(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string tok(argv[i]);
        if (tok.rfind("--", 0) != 0) {
            errors_.push_back(tok);
            continue;
        }
        std::string body = tok.substr(2);
        auto eq = body.find('=');
        if (eq == std::string::npos) {
            values_[body] = "1";
        } else {
            values_[body.substr(0, eq)] = body.substr(eq + 1);
        }
    }
}

bool
CliOptions::has(const std::string &key) const
{
    return values_.count(key) != 0;
}

std::vector<std::string>
CliOptions::keys() const
{
    std::vector<std::string> out;
    for (const auto &kv : values_)
        out.push_back(kv.first);
    return out;
}

std::string
CliOptions::getString(const std::string &key, const std::string &def) const
{
    auto it = values_.find(key);
    return it == values_.end() ? def : it->second;
}

int64_t
CliOptions::getInt(const std::string &key, int64_t def) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        return def;
    char *end = nullptr;
    int64_t v = std::strtoll(it->second.c_str(), &end, 10);
    return (end && *end == '\0') ? v : def;
}

double
CliOptions::getDouble(const std::string &key, double def) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        return def;
    char *end = nullptr;
    double v = std::strtod(it->second.c_str(), &end);
    return (end && *end == '\0') ? v : def;
}

std::vector<int64_t>
CliOptions::getIntList(const std::string &key,
                       const std::vector<int64_t> &def) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        return def;
    std::vector<int64_t> out;
    std::stringstream ss(it->second);
    std::string item;
    while (std::getline(ss, item, ',')) {
        if (item.empty())
            continue;
        char *end = nullptr;
        int64_t v = std::strtoll(item.c_str(), &end, 10);
        if (end && *end == '\0')
            out.push_back(v);
    }
    return out.empty() ? def : out;
}

} // namespace rhtm
