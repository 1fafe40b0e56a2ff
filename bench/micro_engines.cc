/**
 * @file
 * Engine microbenchmarks (google-benchmark): throughput of the NFA
 * interpreter as a function of active set (mesh distance), the
 * multi-DFA engine as a function of component count, the lazy-DFA
 * hybrid against the interpreter it replaces as a fallback, regex
 * compilation, and prefix-merge speed. These quantify the engine
 * properties the paper's CPU arguments rest on: interpreter cost
 * tracks the active set; compiled-engine cost tracks component
 * count, not enabled states.
 *
 * Extra flags beyond google-benchmark's own: --json PATH writes every
 * run as a bench::JsonReport row (benchmark name, engine label,
 * threads, symbols/sec, lazy hand-offs) alongside the console table;
 * --metrics[=PATH] dumps the azoo::obs registry snapshot after the
 * runs (stdout, or PATH when given).
 */

#include <benchmark/benchmark.h>

#include <iostream>

#include "bench/common.hh"
#include "engine/multidfa_engine.hh"
#include "engine/nfa_engine.hh"
#include "engine/planner.hh"
#include "input/dna.hh"
#include "regex/glushkov.hh"
#include "regex/parser.hh"
#include "transform/prefix_merge.hh"
#include "util/rng.hh"
#include "zoo/mesh.hh"
#include "zoo/registry.hh"
#include "zoo/seqmatch.hh"

namespace azoo {
namespace {

constexpr size_t kInput = 64 * 1024;

/** Interpreter throughput vs mesh distance (active set driver). */
void
BM_NfaEngine_HammingActiveSet(benchmark::State &state)
{
    const int d = static_cast<int>(state.range(0));
    const int l = 12 + 2 * d;
    Rng rng(7);
    Automaton a("h");
    for (int i = 0; i < 20; ++i)
        zoo::appendHammingFilter(a, input::randomDnaString(l, rng), d,
                                 i);
    auto in = input::randomDna(kInput, 11);
    NfaEngine e(a);
    SimOptions opts;
    opts.recordReports = false;
    double active = 0;
    for (auto _ : state) {
        auto r = e.simulate(in, opts);
        active = r.avgActiveSet();
        benchmark::DoNotOptimize(r.reportCount);
    }
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations() * kInput));
    state.counters["active_set"] = active;
}
BENCHMARK(BM_NfaEngine_HammingActiveSet)->Arg(1)->Arg(3)->Arg(6);

/** Compiled engine throughput vs component count. */
void
BM_MultiDfa_ComponentScaling(benchmark::State &state)
{
    const int filters = static_cast<int>(state.range(0));
    Rng rng(13);
    Automaton a("lit");
    for (int i = 0; i < filters; ++i) {
        appendRegex(a, parseRegexOrDie(rng.randomString(8, "abcdef")),
                    static_cast<uint32_t>(i));
    }
    auto in = Rng(5).randomBytes(kInput);
    MultiDfaEngine e(a);
    SimOptions opts;
    opts.recordReports = false;
    for (auto _ : state) {
        auto r = e.simulate(in, opts);
        benchmark::DoNotOptimize(r.reportCount);
    }
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations() * kInput));
    state.counters["components"] =
        static_cast<double>(e.compiledComponents());
}
BENCHMARK(BM_MultiDfa_ComponentScaling)->Arg(16)->Arg(64)->Arg(256);

/** Interpreter vs compiled engine on the same Seq Match workload. */
void
BM_Engines_SeqMatch(benchmark::State &state)
{
    zoo::ZooConfig cfg;
    cfg.scale = 0.02;
    cfg.inputBytes = kInput;
    zoo::SeqMatchParams p;
    zoo::Benchmark b = zoo::makeSeqMatchBenchmark(cfg, p);
    SimOptions opts;
    opts.recordReports = false;
    if (state.range(0) == 0) {
        NfaEngine e(b.automaton);
        for (auto _ : state)
            benchmark::DoNotOptimize(
                e.simulate(b.input, opts).reportCount);
    } else {
        MultiDfaEngine e(b.automaton);
        for (auto _ : state)
            benchmark::DoNotOptimize(
                e.simulate(b.input, opts).reportCount);
    }
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations() * kInput));
    state.SetLabel(state.range(0) == 0 ? "NfaEngine"
                                       : "MultiDfaEngine");
}
BENCHMARK(BM_Engines_SeqMatch)->Arg(0)->Arg(1);

/**
 * The lazy DFA (`--engine lazydfa`: a PlannedEngine over
 * fixedPlan(kLazyDfa)) vs the interpreter on an AP PRNG workload —
 * the shape MultiDfaEngine used to hand to its NfaEngine fallback. The PRNG
 * chains keep a huge enabled set (every chain advances on every
 * symbol) but visit only a handful of distinct state-sets, so the
 * interpreter pays O(active set) per symbol while the lazy DFA pays
 * one cached-table probe.
 */
void
BM_Engines_ApPrngFallback(benchmark::State &state)
{
    zoo::ZooConfig cfg;
    cfg.scale = 0.05;
    cfg.inputBytes = kInput;
    zoo::Benchmark b = zoo::makeBenchmark("AP PRNG 8-sided", cfg);
    SimOptions opts;
    opts.recordReports = false;
    opts.computeActiveSet = false;
    if (state.range(0) == 0) {
        NfaEngine e(b.automaton);
        EngineScratch scratch;
        for (auto _ : state) {
            benchmark::DoNotOptimize(
                e.simulate(b.input, scratch, opts).reportCount);
        }
    } else {
        PlannedEngine e(compileProgram(EngineKind::kLazyDfa, b.automaton));
        for (auto _ : state) {
            benchmark::DoNotOptimize(
                e.simulate(b.input, opts).reportCount);
        }
        state.counters["lazy_states"] =
            static_cast<double>(e.lazyCache().states());
        state.counters["lazy_handoffs"] = e.lazyInterpreted();
    }
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations() * kInput));
    state.SetLabel(state.range(0) == 0 ? "NfaEngine" : "lazydfa");
}
BENCHMARK(BM_Engines_ApPrngFallback)->Arg(0)->Arg(1);

/**
 * Lazy-DFA cache-budget sweep on Seq Match (many distinct state-sets):
 * arg is the transition-cache byte budget. A block run whose cache
 * fills hands off to the interpreter there and interprets every
 * later run; the lazy_handoffs counter shows at which budgets that
 * happens, and the throughput column what the DFA buys over the
 * interpreter where it does not.
 */
void
BM_LazyDfa_CacheBudget(benchmark::State &state)
{
    zoo::ZooConfig cfg;
    cfg.scale = 0.02;
    cfg.inputBytes = kInput;
    zoo::SeqMatchParams p;
    zoo::Benchmark b = zoo::makeSeqMatchBenchmark(cfg, p);
    PlanOptions po;
    po.lazyCacheBytes = static_cast<size_t>(state.range(0));
    PlannedEngine e(compileProgram(EngineKind::kLazyDfa, b.automaton, po));
    SimOptions opts;
    opts.recordReports = false;
    opts.computeActiveSet = false;
    for (auto _ : state)
        benchmark::DoNotOptimize(e.simulate(b.input, opts).reportCount);
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations() * kInput));
    state.counters["lazy_handoffs"] = e.lazyInterpreted();
    state.counters["lazy_states"] =
        static_cast<double>(e.lazyCache().states());
    state.SetLabel("lazydfa");
}
BENCHMARK(BM_LazyDfa_CacheBudget)
    ->Arg(16 << 10)
    ->Arg(256 << 10)
    ->Arg(8 << 20);

/** Regex -> Glushkov compile throughput. */
void
BM_Regex_Compile(benchmark::State &state)
{
    Rng rng(17);
    std::vector<std::string> patterns;
    for (int i = 0; i < 64; ++i) {
        patterns.push_back(rng.randomString(6, "abcdef") + ".*" +
                           rng.randomString(6, "abcdef") +
                           "[0-9a-f]{2,6}");
    }
    for (auto _ : state) {
        Automaton a("c");
        for (size_t i = 0; i < patterns.size(); ++i) {
            appendRegex(a, parseRegexOrDie(patterns[i]),
                        static_cast<uint32_t>(i));
        }
        benchmark::DoNotOptimize(a.size());
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * 64));
}
BENCHMARK(BM_Regex_Compile);

/** Prefix merge over a ClamAV-shaped automaton. */
void
BM_PrefixMerge_Clamav(benchmark::State &state)
{
    Rng rng(19);
    Automaton a("p");
    for (int i = 0; i < 200; ++i) {
        // Shared 8-byte prefix family.
        std::string sig = "MZheader" + rng.randomString(40, "abcdef");
        appendRegex(a, parseRegexOrDie(sig), static_cast<uint32_t>(i));
    }
    for (auto _ : state) {
        auto m = prefixMerge(a);
        benchmark::DoNotOptimize(m.statesAfter);
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * a.size()));
}
BENCHMARK(BM_PrefixMerge_Clamav);

/**
 * Console output plus JSON capture: every iteration run is recorded
 * as a bench::JsonRow. The engine label comes from SetLabel when the
 * benchmark set one, else from the benchmark name's prefix.
 */
class JsonCaptureReporter : public benchmark::ConsoleReporter
{
  public:
    void
    ReportRuns(const std::vector<Run> &runs) override
    {
        for (const Run &run : runs) {
            if (run.run_type != Run::RT_Iteration || run.error_occurred)
                continue;
            bench::JsonRow row;
            row.benchmark = run.benchmark_name();
            if (run.report_label.empty()) {
                // "BM_NfaEngine_HammingActiveSet/3" -> "NfaEngine".
                std::string n = row.benchmark;
                if (n.rfind("BM_", 0) == 0)
                    n = n.substr(3);
                row.engine = n.substr(0, n.find('_'));
            } else {
                row.engine = run.report_label;
            }
            row.threads = static_cast<uint64_t>(run.threads);
            auto bps = run.counters.find("bytes_per_second");
            if (bps != run.counters.end())
                row.symbolsPerSec = bps->second.value;
            auto ho = run.counters.find("lazy_handoffs");
            if (ho != run.counters.end())
                row.lazyHandoffs =
                    static_cast<uint64_t>(ho->second.value);
            for (const auto &[key, c] : run.counters) {
                if (key != "bytes_per_second" && key != "lazy_handoffs")
                    row.extra.emplace_back(key, c.value);
            }
            report.add(std::move(row));
        }
        ConsoleReporter::ReportRuns(runs);
    }

    bench::JsonReport report{"micro_engines"};
};

} // namespace
} // namespace azoo

int
main(int argc, char **argv)
{
    // Peel off --json / --metrics before google-benchmark sees (and
    // rejects) them.
    std::string jsonPath;
    std::string metricsPath;
    bool metrics = false;
    std::vector<char *> args;
    for (int i = 0; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--json" && i + 1 < argc) {
            jsonPath = argv[++i];
        } else if (a.rfind("--json=", 0) == 0) {
            jsonPath = a.substr(7);
        } else if (a == "--metrics") {
            metrics = true;
        } else if (a.rfind("--metrics=", 0) == 0) {
            metrics = true;
            metricsPath = a.substr(10);
        } else {
            args.push_back(argv[i]);
        }
    }
    int filtered = static_cast<int>(args.size());
    benchmark::Initialize(&filtered, args.data());
    if (benchmark::ReportUnrecognizedArguments(filtered, args.data()))
        return 1;
    azoo::JsonCaptureReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();
    reporter.report.writeFile(jsonPath);
    if (metrics) {
        const std::string json =
            azoo::obs::Registry::global().toJson();
        if (metricsPath.empty()) {
            std::cout << json << "\n";
        } else {
            std::ofstream f(metricsPath);
            f << json << "\n";
            if (!f)
                azoo::fatal(azoo::cat(
                    "cannot write --metrics output to ", metricsPath));
        }
    }
    return 0;
}
