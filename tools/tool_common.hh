/**
 * @file
 * Shared helpers for the azoo_* command-line tools: sysexits-style
 * exit codes and format-dispatching automaton loading.
 *
 * Exit-code contract (documented in docs/FORMATS.md):
 *   0  success
 *   64 usage error (bad flags; EX_USAGE)
 *   65 bad input data (malformed automaton file; EX_DATAERR)
 *   70 internal error (library bug / escaped exception; EX_SOFTWARE)
 * so CI and sweep scripts can distinguish "you typo'd the flag" from
 * "this corpus file is corrupt" from "the tool itself is broken".
 */

#ifndef AZOO_TOOLS_TOOL_COMMON_HH
#define AZOO_TOOLS_TOOL_COMMON_HH

#include <cstdlib>
#include <iostream>
#include <string>
#include <utility>

#include "core/anml.hh"
#include "core/automaton.hh"
#include "core/mnrl.hh"
#include "core/serialize.hh"
#include "util/cli.hh"
#include "util/status.hh"

namespace azoo::tool {

inline constexpr int kExitOk = 0;
inline constexpr int kExitUsage = 64;    ///< EX_USAGE
inline constexpr int kExitBadData = 65;  ///< EX_DATAERR
inline constexpr int kExitInternal = 70; ///< EX_SOFTWARE

/** Print a usage error and exit 64 (the Cli flag-error path). */
using azoo::usageError;

/** Exit code for a non-OK Status: internal bugs are 70, everything
 *  the input's fault (parse errors, limits, io) is 65. */
inline int
exitCodeFor(const Status &st)
{
    return st.code() == ErrorCode::kInternal ? kExitInternal
                                             : kExitBadData;
}

/** Load an automaton in any supported format (by extension). */
inline Expected<Automaton>
loadAnyAutomaton(const std::string &path,
                 const ParseLimits &limits = ParseLimits())
{
    if (path.size() >= 5 && path.rfind(".mnrl") == path.size() - 5)
        return loadMnrl(path, limits);
    if (path.size() >= 5 && path.rfind(".anml") == path.size() - 5)
        return loadAnml(path, limits);
    return loadAzml(path, limits);
}

/**
 * Flags that select or parameterize azoo_run's *parse* path and are
 * therefore meaningless together with --load (the artifact is already
 * compiled; parse limits were applied by azoo_compile). Kept as data
 * so the usage-error test can enumerate them.
 */
inline const char *const kLoadConflictFlags[] = {"automaton",
                                                 "max-states",
                                                 "max-edges", "save"};

/** Non-empty usage message when @p present (flag names, no "--")
 *  contains a parse-path flag that conflicts with --load. */
inline std::string
loadFlagConflict(const std::vector<std::string> &present)
{
    for (const std::string &f : present) {
        for (const char *c : kLoadConflictFlags) {
            if (f == c) {
                return "azoo_run: --" + f +
                       " conflicts with --load (the artifact is "
                       "already compiled; re-run azoo_compile to "
                       "change it)";
            }
        }
    }
    return "";
}

/** Load, or print the structured error ("path: parse-error at 3:14:
 *  ...") and exit with the bad-data / internal code. */
inline Automaton
loadAnyOrExit(const std::string &path,
              const ParseLimits &limits = ParseLimits())
{
    Expected<Automaton> a = loadAnyAutomaton(path, limits);
    if (!a.ok()) {
        std::cerr << path << ": " << a.status().str() << "\n";
        std::exit(exitCodeFor(a.status()));
    }
    return std::move(*std::move(a));
}

} // namespace azoo::tool

#endif // AZOO_TOOLS_TOOL_COMMON_HH
