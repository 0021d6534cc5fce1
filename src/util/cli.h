/**
 * @file
 * Minimal command-line option parser for the benchmark drivers.
 */

#ifndef RHTM_UTIL_CLI_H
#define RHTM_UTIL_CLI_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace rhtm
{

/**
 * Tiny --key=value option parser.
 *
 * Recognizes "--key=value" and bare "--flag" (stored as "1"). Tokens
 * that are not flags land in errors(), and keys() lists every flag
 * given, so binaries can reject typos and retired flags. Far smaller
 * than a real flags library, but the benches need only a handful of
 * knobs.
 */
class CliOptions
{
  public:
    /** Parse argv; never throws, malformed tokens land in errors(). */
    CliOptions(int argc, char **argv);

    /** True if --key was present. */
    bool has(const std::string &key) const;

    /** String value of --key, or @p def when absent. */
    std::string getString(const std::string &key,
                          const std::string &def) const;

    /** Integer value of --key, or @p def when absent or unparsable. */
    int64_t getInt(const std::string &key, int64_t def) const;

    /** Double value of --key, or @p def when absent or unparsable. */
    double getDouble(const std::string &key, double def) const;

    /** Comma-separated integer list of --key, or @p def when absent. */
    std::vector<int64_t> getIntList(const std::string &key,
                                    const std::vector<int64_t> &def) const;

    /** Every --key given, sorted, each once. */
    std::vector<std::string> keys() const;

    /** Tokens that did not look like --key[=value]. */
    const std::vector<std::string> &errors() const { return errors_; }

  private:
    std::map<std::string, std::string> values_;
    std::vector<std::string> errors_;
};

} // namespace rhtm

#endif // RHTM_UTIL_CLI_H
