/**
 * @file
 * Tiny command-line flag parser for the bench and example binaries.
 *
 * Supports "--name value", "--name=value", and boolean "--name".
 * Unrecognized flags are fatal so typos in sweep scripts fail loudly.
 * "--help" prints the accepted flags (one per line) and exits 0;
 * tools/check_docs.py keys the docs/FORMATS.md flag tables off it.
 */

#ifndef AZOO_UTIL_CLI_HH
#define AZOO_UTIL_CLI_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace azoo {

/** Print "fatal: <msg>" and exit 64 (EX_USAGE): flag errors are
 *  usage errors, which scripts can tell from bad input data (65). */
[[noreturn]] void usageError(const std::string &msg);

/** Parsed command line with typed accessors and defaults. */
class Cli
{
  public:
    /**
     * Parse argv. @p known lists accepted flag names (without "--");
     * anything else aborts with a usage message.
     */
    Cli(int argc, char **argv, const std::vector<std::string> &known);

    /** True if the flag appeared at all. */
    bool has(const std::string &name) const;

    /** String value or default. */
    std::string get(const std::string &name,
                    const std::string &def = "") const;

    /** Integer value or default. */
    int64_t getInt(const std::string &name, int64_t def) const;

    /** Double value or default. */
    double getDouble(const std::string &name, double def) const;

    /** Boolean flag: present (with no value or "true"/"1") means true. */
    bool getBool(const std::string &name, bool def = false) const;

  private:
    std::map<std::string, std::string> values_;
};

} // namespace azoo

#endif // AZOO_UTIL_CLI_HH
