/**
 * @file
 * Table I: the AutomataZoo suite summary.
 *
 * For every benchmark: states, edges, edges/node, subgraph count,
 * average subgraph size and std dev, compressed states after the
 * VASim-style prefix-merge optimization, compression factor, and the
 * dynamic active set measured with the NFA interpreter on the
 * standard input. The Lazy.* columns characterize the same run under
 * `--engine lazydfa` (a PlannedEngine over fixedPlan(kLazyDfa)):
 * distinct state-sets interned (0 once the run hands off), whether the
 * cache filled at the default budget and handed the run off to the
 * interpreter, counter components interpreted beside the DFA, and the
 * transition-cache hit rate (from the cache's own counts). Plan is the
 * per-component backend census under --engine auto (P/A/D/I/S, see
 * engine/planner.hh) and Pf.Skip% the input fraction the literal
 * prefilter skipped on the same run.
 *
 * Absolute sizes scale with --scale (default 0.05 of the paper's
 * pattern counts; --full reproduces paper sizes). The second table
 * compares scale-invariant shape metrics (per-subgraph size,
 * edge density, active set per 1000 states) against the paper's
 * Table I values.
 */

#include <iostream>
#include <map>

#include "analysis/analysis.hh"
#include "analysis/profile.hh"
#include "bench/common.hh"
#include "core/stats.hh"
#include "engine/nfa_engine.hh"
#include "engine/planner.hh"
#include "transform/prefix_merge.hh"
#include "util/table.hh"
#include "util/timer.hh"
#include "zoo/registry.hh"

using namespace azoo;

namespace {

/** Paper Table I reference values (full-scale). */
struct PaperRow {
    double states;
    double edgesPerNode;
    double avgSize;
    double activeSet;
};

/**
 * Lint-clean cell: "yes" when verify+lint produce no errors and no
 * warnings, otherwise the count of the worst class present. Errors
 * would mean a generator emitted a corrupt automaton (postVerify
 * should have caught it first); warnings flag legal-but-redundant
 * structure the optimizer passes can collapse.
 */
std::string
lintCell(const Automaton &a)
{
    const analysis::Report rep = analysis::analyze(a);
    if (rep.errors)
        return cat(rep.errors, " err");
    if (rep.warnings)
        return cat(rep.warnings, " warn");
    return "yes";
}

/** Component-class census ("L235" / "R13/U2") and literal-factor
 *  coverage ("235/235") cells, from the analysis inference layer. */
std::pair<std::string, std::string>
classCells(const std::vector<analysis::ComponentProfile> &profiles)
{
    size_t counts[4] = {};
    size_t with_factor = 0;
    for (const analysis::ComponentProfile &p : profiles) {
        ++counts[static_cast<size_t>(p.cls)];
        with_factor += !p.mandatoryLiteral.empty();
    }
    std::string census;
    for (size_t c = 0; c < 4; ++c) {
        if (counts[c] == 0)
            continue;
        if (!census.empty())
            census += "/";
        census += analysis::componentClassCode(
            static_cast<analysis::ComponentClass>(c));
        census += std::to_string(counts[c]);
    }
    return {census.empty() ? "-" : census,
            cat(with_factor, "/", profiles.size())};
}

const std::map<std::string, PaperRow> kPaper = {
    {"Snort", {202043, 1.17, 81.27, 409.358}},
    {"ClamAV", {2374717, 1.00, 71.59, 356.532}},
    {"Protomata", {24103, 1.00, 18.41, 712.884}},
    {"Brill", {115549, 1.37, 19.43, 78.2558}},
    {"Random Forest A", {248000, 1.00, 31, 862.504}},
    {"Random Forest B", {248000, 1.00, 31, 1043.18}},
    {"Random Forest C", {992000, 1.00, 62, 2334.97}},
    {"Hamming 18x3", {108000, 1.69, 108, 1944.38}},
    {"Hamming 22x5", {192000, 1.81, 192, 6324.49}},
    {"Hamming 31x10", {451000, 1.90, 451, 19617.8}},
    {"Levenshtein 19x3", {109000, 4.08, 109, 4528.69}},
    {"Levenshtein 24x5", {204000, 6.13, 204, 18033.9}},
    {"Levenshtein 37x10", {557000, 11.17, 557, 85866.1}},
    {"Seq. Match 6w 6p", {51570, 2.13, 30, 5538.98}},
    {"Seq. Match 6w 6p wC", {53289, 2.13, 31, 5555.98}},
    {"Seq. Match 6w 10p", {85950, 2.16, 50, 5465.23}},
    {"Seq. Match 6w 10p wC", {87669, 2.16, 51, 5497.23}},
    {"Entity Resolution", {413352, 1.55, 41.34, 57.5615}},
    {"CRISPR CasOffinder", {74000, 1.27, 37, 191.64}},
    {"CRISPR CasOT", {202000, 1.66, 101, 953.753}},
    {"YARA", {1047528, 0.98, 44.52, 579.739}},
    {"YARA Wide", {115246, 0.98, 43.99, 123.964}},
    {"File Carving", {2663, 58.81, 295.89, 15.6547}},
    {"AP PRNG 4-sided", {20000, 1.60, 20, 4500}},
    {"AP PRNG 8-sided", {72000, 1.78, 72, 2500}},
};

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchConfig cfg = bench::parseBenchFlags(argc, argv);

    std::cout << "Table I: AutomataZoo benchmarks (scale="
              << cfg.zoo.scale << ", input=" << cfg.zoo.inputBytes
              << "B, sim=" << cfg.simBytes << "B, threads="
              << cfg.threads << ")\n\n";

    // Generate the whole suite up front, fanned out over --threads
    // workers; buildSuite is deterministic, so the table is identical
    // at any thread count.
    std::vector<std::string> names;
    for (const auto &info : zoo::allBenchmarks())
        names.push_back(info.name);
    Timer genTimer;
    std::vector<zoo::Benchmark> suite =
        zoo::buildSuite(names, cfg.zoo, cfg.threads);
    std::cerr << "  [generated " << suite.size() << " benchmarks in "
              << Table::fixed(genTimer.seconds(), 1) << "s on "
              << cfg.threads << " threads]\n";

    Table t({"Benchmark", "States", "Edges", "Edges/Node", "Subgraphs",
             "Avg.Size", "Std.Dev", "Compr.States", "Compr.Factor",
             "ActiveSet", "Lint", "Class", "Lit", "Plan", "Pf.Skip%",
             "Lazy.Sets", "Lazy.HO", "Lazy.FB", "Lazy.Hit%"});
    Table shape({"Benchmark", "Avg.Size", "(paper)", "Edges/Node",
                 "(paper)", "Act/1kStates", "(paper)"});

    for (size_t bi = 0; bi < suite.size(); ++bi) {
        const auto &info = zoo::allBenchmarks()[bi];
        Timer timer;
        zoo::Benchmark &b = suite[bi];
        GraphStats s = computeStats(b.automaton);

        MergeResult merged = prefixMerge(b.automaton);

        NfaEngine engine(b.automaton);
        SimOptions opts;
        opts.recordReports = false;
        SimResult r = engine.simulate(b.input.data(), cfg.simBytes,
                                      opts);

        PlannedEngine lazyEngine(
            compileProgram(EngineKind::kLazyDfa, b.automaton));
        SimOptions lazyOpts = opts;
        lazyOpts.computeActiveSet = false;
        lazyEngine.simulate(b.input.data(), cfg.simBytes, lazyOpts);
        const LazyDfaCache &cache = lazyEngine.lazyCache();
        const uint64_t hits = cache.hits();
        const uint64_t misses = cache.misses();
        const double hitPct = hits + misses
            ? 100.0 * static_cast<double>(hits) / (hits + misses)
            : 0.0;

        // Planner view of the same automaton: per-component backend
        // census and the fraction of input the literal prefilter
        // skipped under --engine auto (from engine stats, so the cell
        // is live even under AZOO_OBS=OFF).
        const std::vector<analysis::ComponentProfile> profiles =
            analysis::inferProfiles(b.automaton);
        PlannedEngine plannedEngine(b.automaton, profiles);
        plannedEngine.simulate(b.input.data(), cfg.simBytes, opts);
        const PrefilterStats &pf = plannedEngine.lastPrefilterStats();
        const double pfSkip = cfg.simBytes
            ? 100.0 * static_cast<double>(pf.skippedBytes) /
                  static_cast<double>(cfg.simBytes)
            : 0.0;

        const auto [census, litCov] = classCells(profiles);
        const uint64_t total = s.states + s.counters;
        t.addRow({info.name, Table::num(total), Table::num(s.edges),
                  Table::fixed(s.edgesPerNode, 2),
                  Table::num(s.subgraphs),
                  Table::fixed(s.avgSubgraph, 2),
                  Table::fixed(s.stdSubgraph, 2),
                  Table::num(merged.statesAfter),
                  Table::ratio(merged.reduction(), 2),
                  Table::fixed(r.avgActiveSet(), 1),
                  lintCell(b.automaton), census, litCov,
                  plannedEngine.plan().census(),
                  Table::fixed(pfSkip, 1),
                  Table::num(cache.states()),
                  lazyEngine.lazyInterpreted() ? "yes" : "no",
                  Table::num(lazyEngine.plan().backendCount[size_t(
                      PlanBackend::kInterpreter)]),
                  Table::fixed(hitPct, 1)});

        auto it = kPaper.find(info.name);
        if (it != kPaper.end() && total) {
            const PaperRow &p = it->second;
            shape.addRow(
                {info.name, Table::fixed(s.avgSubgraph, 1),
                 Table::fixed(p.avgSize, 1),
                 Table::fixed(s.edgesPerNode, 2),
                 Table::fixed(p.edgesPerNode, 2),
                 Table::fixed(1000 * r.avgActiveSet() / total, 2),
                 Table::fixed(1000 * p.activeSet / p.states, 2)});
        }

        std::cerr << "  [" << info.name << " done in "
                  << Table::fixed(timer.seconds(), 1) << "s]\n";
    }

    t.print(std::cout);
    std::cout << "\nScale-invariant shape check vs the paper's "
                 "Table I:\n\n";
    shape.print(std::cout);
    return 0;
}
