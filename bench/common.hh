/**
 * @file
 * Shared flag handling and machine-readable output for the
 * table/figure bench binaries.
 *
 * Every bench accepts:
 *   --scale S    pattern-count scale vs the paper's full size
 *                (default 0.05; --full sets 1.0)
 *   --input N    standard input bytes for generation (default 1 MiB)
 *   --sim N      bytes actually simulated for dynamic stats
 *                (default 256 KiB; capped at --input)
 *   --seed X     generation seed (default 42)
 *   --full       paper-scale sizes (slow; hours for Table I)
 *   --threads N  worker threads for benches that parallelize
 *                generation or simulation (default 1)
 *
 * Benches that measure throughput additionally accept --json PATH and
 * emit their measurements through JsonReport so sweeps and CI can
 * diff numbers without screen-scraping the tables.
 */

#ifndef AZOO_BENCH_COMMON_HH
#define AZOO_BENCH_COMMON_HH

#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/obs.hh"
#include "util/cli.hh"
#include "util/logging.hh"
#include "zoo/benchmark.hh"

namespace azoo {
namespace bench {

struct BenchConfig {
    zoo::ZooConfig zoo;
    size_t simBytes = 256 * 1024;
    size_t threads = 1;
};

inline BenchConfig
parseBenchFlags(int argc, char **argv,
                std::vector<std::string> extra_flags = {})
{
    std::vector<std::string> known = {"scale", "input", "sim", "seed",
                                      "full", "threads"};
    known.insert(known.end(), extra_flags.begin(), extra_flags.end());
    Cli cli(argc, argv, known);

    BenchConfig cfg;
    cfg.zoo.scale = cli.getDouble("scale", 0.05);
    if (cli.getBool("full"))
        cfg.zoo.scale = 1.0;
    cfg.zoo.inputBytes =
        static_cast<size_t>(cli.getInt("input", 1 << 20));
    cfg.zoo.seed = static_cast<uint64_t>(cli.getInt("seed", 42));
    cfg.simBytes = static_cast<size_t>(
        cli.getInt("sim", 256 * 1024));
    if (cfg.simBytes > cfg.zoo.inputBytes)
        cfg.simBytes = cfg.zoo.inputBytes;
    cfg.threads = static_cast<size_t>(cli.getInt("threads", 1));
    if (cfg.threads == 0)
        cfg.threads = 1;
    return cfg;
}

/** Minimal JSON string escaping (quotes, backslash, control bytes). */
inline void
jsonEscape(std::ostream &os, const std::string &s)
{
    os << '"';
    for (char c : s) {
        if (c == '"' || c == '\\') {
            os << '\\' << c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            os << "\\u" << std::hex << std::setw(4) << std::setfill('0')
               << static_cast<int>(c) << std::dec << std::setfill(' ');
        } else {
            os << c;
        }
    }
    os << '"';
}

/** JSON number with enough digits to round-trip a throughput. */
inline std::string
jsonNum(double v)
{
    std::ostringstream os;
    os << std::setprecision(10) << v;
    return os.str();
}

/**
 * One measurement for --json output. The fixed fields are the ones
 * every throughput bench shares; anything bench-specific (active set,
 * cached state-sets, speedup, ...) goes in @ref extra.
 */
struct JsonRow {
    std::string benchmark;
    std::string engine;
    uint64_t threads = 1;
    double symbolsPerSec = 0;
    /** Lazy-DFA groups that handed off to the interpreter. */
    uint64_t lazyHandoffs = 0;
    std::vector<std::pair<std::string, double>> extra;
};

/**
 * Accumulates JsonRow records and writes them as
 *   {"schema": "azoo-bench-1", "tool": ..., "rows": [...]}
 * so every bench's --json output parses with the same three lines of
 * Python. Writing is a no-op when the path is empty, so callers can
 * pass the --json flag value straight through.
 */
class JsonReport
{
  public:
    explicit JsonReport(std::string tool) : tool_(std::move(tool)) {}

    void add(JsonRow row) { rows_.push_back(std::move(row)); }

    void
    write(std::ostream &os) const
    {
        os << "{\n  \"schema\": \"azoo-bench-1\",\n  \"tool\": ";
        jsonEscape(os, tool_);
        // Registry snapshot at write time: whatever the bench's runs
        // recorded (cache hit rates, guard stops, ...) rides along
        // with the measurements. With AZOO_OBS=OFF this is the empty
        // {"enabled": false} skeleton.
        os << ",\n  \"metrics\": " << obs::Registry::global().toJson();
        os << ",\n  \"rows\": [";
        for (size_t i = 0; i < rows_.size(); ++i) {
            const JsonRow &r = rows_[i];
            os << (i ? ",\n    {" : "\n    {") << "\"benchmark\": ";
            jsonEscape(os, r.benchmark);
            os << ", \"engine\": ";
            jsonEscape(os, r.engine);
            os << ", \"threads\": " << r.threads
               << ", \"symbols_per_sec\": " << jsonNum(r.symbolsPerSec)
               << ", \"lazy_handoffs\": " << r.lazyHandoffs;
            for (const auto &[key, val] : r.extra) {
                os << ", ";
                jsonEscape(os, key);
                os << ": " << jsonNum(val);
            }
            os << "}";
        }
        os << "\n  ]\n}\n";
    }

    /** Write to @p path (fatal on I/O failure); no-op if empty. */
    void
    writeFile(const std::string &path) const
    {
        if (path.empty())
            return;
        std::ofstream f(path);
        write(f);
        if (!f)
            fatal(cat("cannot write --json output to ", path));
    }

  private:
    std::string tool_;
    std::vector<JsonRow> rows_;
};

} // namespace bench
} // namespace azoo

#endif // AZOO_BENCH_COMMON_HH
