/**
 * @file
 * azoo_run: simulate an automaton file over an input file.
 *
 * The VASim-equivalent command-line driver: loads any supported
 * format, runs the chosen engine, and prints statistics and
 * (optionally) the report stream.
 *
 * Usage:
 *   azoo_run --automaton x.mnrl --input x.input
 *            [--engine nfa|multidfa|lazydfa|auto] [--cache-bytes N]
 *            [--no-prefilter] [--reports N] [--by-code]
 *            [--threads N] [--batch] [--chunk BYTES]
 *            [--metrics[=FILE]] [--save x.azoox]
 *   azoo_run --load x.azoox --input x.input [...same run flags]
 *
 * --save writes the parsed automaton as a compiled `.azoox` artifact
 * (equivalent to azoo_compile). --load replaces the parse path with
 * the artifact loader: the file is mmap-ed, validated, and — for the
 * serial nfa engine — executed zero-copy straight out of the mapping;
 * other engines materialize the graph first. Parse-path flags
 * (--automaton, --max-states, --max-edges, --save) are usage errors
 * together with --load, since the artifact is already compiled.
 *
 * Engines (--engine, parsed by parseEngine(): nfa|multidfa|dfa|
 * lazydfa|auto; any other name is a usage error listing these): nfa
 * is the enabled-set interpreter; multidfa (alias: dfa) determinizes
 * each component eagerly; lazydfa runs subset construction on the
 * fly, memoizing transitions in a cache bounded by --cache-bytes
 * (a block run that fills it hands off to the interpreter there),
 * and interprets counter components beside it; auto profiles the
 * automaton and plans each component onto the cheapest exact backend
 * (literal prefilter, lazy DFA, or interpreter — see
 * docs/ARCHITECTURE.md "Engine planning & prefilters"). lazydfa and
 * auto are both planned programs (lazydfa's plan is fixed) and run
 * the same way; nfa runs the serial NfaEngine on one block and a
 * planned program with a fixed all-interpreter plan everywhere else.
 * --no-prefilter keeps the planner but routes literal chains to the
 * interpreter instead of the prefilter. All engines produce identical
 * reports and counts, also under --symbol-budget (canonical order for
 * every run but a serial block nfa run).
 *
 * --threads N (N > 1) simulates with the parallel layer: by default
 * the automaton is sharded by connected components and all shards
 * scan the input concurrently (component-level parallelism). With
 * --batch, --input is a comma-separated list of files, each an
 * independent stream fanned out across the pool (stream-level
 * parallelism); --chunk feeds each stream to a session cursor in
 * chunks of the given size instead of one monolithic pass. Either
 * way the reports are byte-identical to a serial run (canonical
 * order). Both parallel paths run one ParallelRunner configuration
 * and take --engine nfa, lazydfa, or auto (multidfa is a usage
 * error). --chunk also works single-stream (without --batch): the
 * input is fed through one PlannedSession over the engine's program
 * (nfa, lazydfa, auto); multidfa, or --threads > 1, is a usage error
 * (there is no streaming multidfa).
 *
 * --metrics prints the azoo::obs registry snapshot (JSON) after the
 * run; --metrics=FILE writes it to FILE instead.
 */

#include <fstream>
#include <iostream>
#include <optional>

#include "analysis/profile.hh"
#include "artifact/artifact.hh"
#include "core/stats.hh"
#include "engine/multidfa_engine.hh"
#include "engine/nfa_engine.hh"
#include "engine/parallel_runner.hh"
#include "engine/planner.hh"
#include "engine/run_guard.hh"
#include "obs/obs.hh"
#include "tool_common.hh"
#include "util/cli.hh"
#include "util/logging.hh"
#include "util/net.hh"
#include "util/strings.hh"
#include "util/table.hh"
#include "util/timer.hh"

using namespace azoo;

namespace {

std::vector<uint8_t>
loadBytes(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    if (!f) {
        std::cerr << path << ": cannot read\n";
        std::exit(tool::kExitBadData);
    }
    return {std::istreambuf_iterator<char>(f),
            std::istreambuf_iterator<char>()};
}

/** One line per truncated run so scripts notice partial results. */
void
noteTruncation(const SimResult &r)
{
    if (r.truncated()) {
        std::cerr << "run truncated after " << r.symbols
                  << " symbols: " << r.guardStatus.str() << "\n";
    }
}

/** --metrics          -> registry JSON on stdout
 *  --metrics=FILE     -> registry JSON written to FILE */
void
dumpMetrics(const Cli &cli)
{
    if (!cli.has("metrics"))
        return;
    const std::string dest = cli.get("metrics");
    const std::string json = obs::Registry::global().toJson();
    if (dest.empty() || dest == "true") {
        std::cout << json << "\n";
        return;
    }
    std::ofstream f(dest);
    if (!f)
        fatal(cat("cannot open for write: ", dest));
    f << json << "\n";
}

/** engine.lazy.handoffs: lazy-DFA groups that handed off to the
 *  interpreter so far (0 under -DAZOO_OBS=OFF). */
uint64_t
lazyHandoffs()
{
    return obs::Registry::global().counterValue("engine.lazy.handoffs");
}

} // namespace

int
main(int argc, char **argv)
{
    Cli cli(argc, argv,
            {"automaton", "input", "engine", "cache-bytes",
             "no-prefilter", "reports", "by-code", "threads", "batch",
             "chunk", "deadline-ms", "symbol-budget", "max-states",
             "max-edges", "metrics", "load", "save"});
    const std::string apath = cli.get("automaton");
    const std::string ipath = cli.get("input");
    const bool useLoad = cli.has("load");
    if (useLoad) {
        std::vector<std::string> present;
        for (const char *f : tool::kLoadConflictFlags) {
            if (cli.has(f))
                present.push_back(f);
        }
        const std::string conflict = tool::loadFlagConflict(present);
        if (!conflict.empty())
            tool::usageError(conflict);
        if (cli.get("load").empty() || cli.get("load") == "true")
            tool::usageError("azoo_run: --load needs a file path");
    }
    if ((apath.empty() && !useLoad) || ipath.empty())
        tool::usageError("azoo_run: --automaton (or --load) and "
                         "--input are required");
    const Expected<EngineKind> parsed =
        parseEngine(cli.get("engine", "nfa"));
    if (!parsed.ok())
        tool::usageError(cat("azoo_run: ", parsed.status().message()));
    const EngineKind engine = *parsed;

    ParseLimits limits;
    if (cli.has("max-states"))
        limits.maxStates =
            static_cast<size_t>(cli.getInt("max-states", 0));
    if (cli.has("max-edges"))
        limits.maxEdges =
            static_cast<size_t>(cli.getInt("max-edges", 0));

    // Two automaton sources: the parse path (text formats, eager) or
    // the artifact path (validated mmap; the graph is materialized
    // only for engines that need it, so the serial-nfa fast path does
    // zero per-state work between open() and the first symbol).
    std::optional<Automaton> mat;
    std::optional<artifact::LoadedArtifact> art;
    if (useLoad) {
        const std::string lpath = cli.get("load");
        Expected<artifact::LoadedArtifact> la =
            artifact::loadArtifact(lpath);
        if (!la.ok()) {
            std::cerr << lpath << ": " << la.status().str() << "\n";
            return tool::exitCodeFor(la.status());
        }
        art = std::move(*std::move(la));
        std::cout << art->name() << ": " << art->elementCount()
                  << " elements, " << art->edgeCount()
                  << " edges (artifact v" << art->versionMajor()
                  << "." << art->versionMinor()
                  << (art->hasExecImage() ? ", exec image" : "")
                  << (art->mapped() ? ", mmap" : ", heap") << ")\n";
    } else {
        mat = tool::loadAnyOrExit(apath, limits);
        GraphStats s = computeStats(*mat);
        std::cout << mat->name() << ": " << s.states << " states, "
                  << s.counters << " counters, " << s.edges
                  << " edges, " << s.subgraphs << " subgraphs\n";
    }
    auto graph = [&]() -> const Automaton & {
        if (!mat) {
            Expected<Automaton> m = art->materialize(limits);
            if (!m.ok()) {
                std::cerr << cli.get("load") << ": "
                          << m.status().str() << "\n";
                std::exit(tool::exitCodeFor(m.status()));
            }
            mat = std::move(*std::move(m));
        }
        return *mat;
    };

    // An artifact's PROF section is inference already paid for: kAuto
    // plans from it, serial, chunked, --threads or --batch, and
    // multidfa compiles with it (empty without one, so each infers).
    const std::vector<analysis::ComponentProfile> noProfiles;
    const std::vector<analysis::ComponentProfile> &artProfiles =
        art ? art->componentProfiles() : noProfiles;

    if (cli.has("save")) {
        const std::string spath = cli.get("save");
        if (spath.empty() || spath == "true")
            tool::usageError("azoo_run: --save needs a file path");
        Expected<artifact::ArtifactInfo> info =
            artifact::saveArtifact(spath, graph());
        if (!info.ok()) {
            std::cerr << spath << ": " << info.status().str() << "\n";
            return tool::exitCodeFor(info.status());
        }
        std::cout << "saved " << spath << ": " << info->fileBytes
                  << " bytes\n";
    }

    SimOptions opts;
    opts.countByCode = cli.getBool("by-code");
    // The guard is always wired, even with no deadline/budget flags:
    // SIGINT/SIGTERM raise its cancellation flag, so an interrupted
    // run stops at the next guard poll and reports a truncated but
    // exact result (with the usual truncation note) instead of dying
    // mid-write. SIGPIPE is ignored for the same reason — a closed
    // pager must surface as a write error, not kill the run.
    RunGuard guard;
    if (cli.has("deadline-ms"))
        guard.setDeadlineMs(
            static_cast<uint64_t>(cli.getInt("deadline-ms", 0)));
    if (cli.has("symbol-budget"))
        guard.setSymbolBudget(static_cast<uint64_t>(
            cli.getInt("symbol-budget", 0)));
    opts.guard = &guard;
    net::installCancelOnSignals(guard);
    const auto show =
        static_cast<size_t>(cli.getInt("reports", 10));
    opts.reportRecordLimit = show;

    const auto cacheBytes = static_cast<size_t>(
        cli.getInt("cache-bytes", 8 << 20));
    PlanOptions planOpts;
    planOpts.enablePrefilter = !cli.getBool("no-prefilter");
    planOpts.lazyCacheBytes = cacheBytes;
    const auto threads =
        static_cast<size_t>(cli.getInt("threads", 1));
    const bool batch = cli.getBool("batch");
    const auto chunkBytes =
        static_cast<size_t>(cli.getInt("chunk", 0));
    if ((batch || threads > 1) && engine == EngineKind::kMultiDfa)
        tool::usageError("azoo_run: --batch/--threads require "
                         "--engine nfa, lazydfa, or auto");
    // One configuration for --batch streams and --threads shards.
    ParallelOptions popts;
    popts.threads = threads;
    popts.chunkBytes = chunkBytes;
    popts.engine = engine;
    popts.plan = planOpts;
    popts.sim = opts;

    if (batch) {
        std::vector<std::vector<uint8_t>> streams;
        for (const std::string &p : split(ipath, ',')) {
            if (p.empty())
                tool::usageError("azoo_run: empty file name in "
                                 "--input list (stray comma?)");
            streams.push_back(loadBytes(p));
        }
        ParallelRunner runner(graph(), popts, artProfiles);
        const uint64_t handoffs = lazyHandoffs();
        Timer timer;
        BatchResult br = runner.runBatch(streams);
        const double secs = timer.seconds();
        for (size_t i = 0; i < br.perStream.size(); ++i) {
            if (!br.perStreamStatus[i].ok()) {
                std::cout << "stream " << i << ": FAILED: "
                          << br.perStreamStatus[i].str() << "\n";
                continue;
            }
            std::cout << "stream " << i << ": "
                      << br.perStream[i].symbols << " bytes, "
                      << br.perStream[i].reportCount << " reports\n";
            noteTruncation(br.perStream[i]);
        }
        std::cout << br.totalSymbols << " bytes total in "
                  << Table::fixed(secs, 3) << "s ("
                  << Table::fixed(br.totalSymbols / secs / 1e6, 1)
                  << " MB/s aggregate, " << runner.threads()
                  << " threads), " << br.totalReports << " reports\n";
        if (lazyHandoffs() != handoffs) {
            std::cout << "lazy cache: full in " << lazyHandoffs() - handoffs
                      << " sessions, handed off to the interpreter\n";
        }
        dumpMetrics(cli);
        return br.allOk() ? tool::kExitOk : tool::kExitBadData;
    }

    if (chunkBytes != 0) {
        // Chunks feed a session cursor; refuse instead of silently
        // substituting an engine.
        if (engine == EngineKind::kMultiDfa)
            tool::usageError("azoo_run: --chunk requires --engine nfa, "
                             "lazydfa or auto (multidfa has no "
                             "streaming session)");
        if (threads > 1)
            tool::usageError("azoo_run: --chunk with --threads > 1 "
                             "requires --batch");
    }

    auto input = loadBytes(ipath);
    const uint64_t handoffs = lazyHandoffs();
    Timer timer;
    SimResult r;
    if (chunkBytes != 0) {
        // Every streamed engine is a planned program; nfa's and
        // lazydfa's plans are fixed.
        PlannedSession sess(
            compileProgram(engine, graph(), planOpts, artProfiles));
        sess.options = opts;
        timer.reset();
        feedChunks(input.data(), input.size(), chunkBytes,
                   [&](const uint8_t *p, size_t n) {
                       return sess.feed(p, n);
                   });
        r = sess.results();
        const PrefilterStats &pf = sess.prefilterStats();
        std::cout << "planned " << sess.plan().census() << ": "
                  << pf.candidates << " prefilter candidates, "
                  << pf.skippedBytes << " bytes skipped\n";
    } else if (threads > 1) {
        ParallelRunner runner(graph(), popts, artProfiles);
        std::cout << "sharded into " << runner.shardCount()
                  << " component groups on " << runner.threads()
                  << " threads\n";
        timer.reset();
        r = runner.simulateSharded(input);
    } else if (engine == EngineKind::kNfa) {
        // The artifact fast path: adopt the validated EXEC image
        // straight out of the mapping, no materialization at all.
        if (art && art->hasExecImage()) {
            NfaEngine e(art->execImage());
            r = e.simulate(input, opts);
        } else {
            NfaEngine e(graph());
            r = e.simulate(input, opts);
        }
    } else if (engine != EngineKind::kMultiDfa) { // lazydfa, auto
        PlannedEngine e(
            compileProgram(engine, graph(), planOpts, artProfiles));
        std::cout << "planned " << e.plan().census() << " ("
                  << e.prefilterPatterns() << " scan literals)\n";
        timer.reset();
        r = e.simulate(input, opts);
        const PrefilterStats &pf = e.lastPrefilterStats();
        if (e.prefilterPatterns()) {
            const double pct = r.symbols
                ? 100.0 * static_cast<double>(pf.skippedBytes) /
                      static_cast<double>(r.symbols)
                : 0.0;
            std::cout << "prefilter: " << pf.candidates
                      << " candidates, " << pf.skippedBytes
                      << " bytes skipped ("
                      << Table::fixed(pct, 1) << "%)\n";
        }
    } else { // kMultiDfa
        // Profile facts let compilation skip subset constructions the
        // blowup estimate already rules out; results are unchanged.
        // An artifact's PROF section spares the inference.
        std::vector<analysis::ComponentProfile> inferred;
        if (artProfiles.empty())
            inferred = analysis::inferProfiles(graph());
        MultiDfaOptions mo;
        mo.lazyCacheBytes = cacheBytes;
        mo.profiles = artProfiles.empty() ? &inferred : &artProfiles;
        MultiDfaEngine e(graph(), mo);
        std::cout << "compiled " << e.compiledComponents()
                  << " DFAs (" << e.totalDfaStates() << " states), "
                  << e.fallbackComponents() << " lazy-DFA fallbacks\n";
        timer.reset();
        r = e.simulate(input, opts);
    }
    const double secs = timer.seconds();

    noteTruncation(r);
    std::cout << r.symbols << " bytes in "
              << Table::fixed(secs, 3) << "s ("
              << Table::fixed(static_cast<double>(r.symbols) / secs /
                              1e6, 1)
              << " MB/s), " << r.reportCount << " reports";
    // totalEnabled is engine-defined where components are compiled,
    // skipped or windowed.
    if (engine != EngineKind::kMultiDfa && engine != EngineKind::kAuto) {
        std::cout << ", avg active set "
                  << Table::fixed(r.avgActiveSet(), 1);
    }
    std::cout << "\n";
    if (lazyHandoffs() != handoffs) {
        std::cout << "lazy cache: full in " << lazyHandoffs() - handoffs
                  << " sessions, handed off to the interpreter\n";
    } else if (r.lazyStates) {
        std::cout << "lazy cache: " << r.lazyStates << " state-sets\n";
    }

    for (size_t i = 0; i < r.reports.size() && i < show; ++i) {
        std::cout << "  report offset=" << r.reports[i].offset
                  << " code=" << r.reports[i].code << "\n";
    }
    if (opts.countByCode) {
        std::cout << "reports by code:\n";
        for (const auto &[code, count] : r.byCode)
            std::cout << "  " << code << ": " << count << "\n";
    }
    dumpMetrics(cli);
    return 0;
}
