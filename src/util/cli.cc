#include "util/cli.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "util/logging.hh"

namespace azoo {

void
usageError(const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s\n", msg.c_str());
    std::exit(64);
}

Cli::Cli(int argc, char **argv, const std::vector<std::string> &known)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0)
            usageError(cat("unexpected positional argument: ", arg));
        arg = arg.substr(2);
        // Every tool answers --help with its accepted flags, one per
        // line; tools/check_docs.py diffs this against docs/FORMATS.md.
        if (arg == "help") {
            std::printf("usage: %s [flags]\nflags:\n",
                        argc > 0 ? argv[0] : "tool");
            for (const auto &k : known)
                std::printf("  --%s\n", k.c_str());
            std::printf("  --help\n");
            std::exit(0);
        }
        std::string name;
        std::string value;
        auto eq = arg.find('=');
        if (eq != std::string::npos) {
            name = arg.substr(0, eq);
            value = arg.substr(eq + 1);
        } else {
            name = arg;
            // Consume a following value if it isn't another flag.
            if (i + 1 < argc &&
                std::string(argv[i + 1]).rfind("--", 0) != 0) {
                value = argv[++i];
            } else {
                value = "true";
            }
        }
        if (std::find(known.begin(), known.end(), name) == known.end()) {
            std::string usage = "unknown flag --" + name + "; known:";
            for (const auto &k : known)
                usage += " --" + k;
            usageError(usage);
        }
        values_[name] = value;
    }
}

bool
Cli::has(const std::string &name) const
{
    return values_.count(name) > 0;
}

std::string
Cli::get(const std::string &name, const std::string &def) const
{
    auto it = values_.find(name);
    return it == values_.end() ? def : it->second;
}

int64_t
Cli::getInt(const std::string &name, int64_t def) const
{
    auto it = values_.find(name);
    return it == values_.end() ? def : std::strtoll(
        it->second.c_str(), nullptr, 10);
}

double
Cli::getDouble(const std::string &name, double def) const
{
    auto it = values_.find(name);
    return it == values_.end() ? def : std::strtod(
        it->second.c_str(), nullptr);
}

bool
Cli::getBool(const std::string &name, bool def) const
{
    auto it = values_.find(name);
    if (it == values_.end())
        return def;
    return it->second == "true" || it->second == "1" ||
        it->second == "yes";
}

} // namespace azoo
