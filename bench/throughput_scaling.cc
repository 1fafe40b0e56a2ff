/**
 * @file
 * Thread-scaling throughput of the parallel execution layer.
 *
 * Reports aggregate symbols/sec at 1/2/4/8 threads (and the machine's
 * hardware thread count if it is not in that list) for both axes of
 * ParallelRunner:
 *
 *  - batch: the benchmark's standard input split into --streams equal
 *    streams, fanned out across the pool;
 *  - sharded: one input scanned by per-thread component shards.
 *
 * --engine nfa|lazydfa|auto (what ParallelRunner runs; any other
 * name is a usage error) picks the per-stream/per-shard engine and
 * --json PATH writes every measurement as a bench::JsonReport row
 * (benchmark "name/batch" or "name/sharded", engine, threads,
 * symbols/sec, and the lazy-DFA hand-offs its runs made: worker slots
 * and shards whose cache filled and handed off to the interpreter,
 * from engine.lazy.handoffs, so 0 under -DAZOO_OBS=OFF).
 *
 * Methodology (see docs/ARCHITECTURE.md): one untimed warmup run per
 * configuration, then --reps timed repetitions; the best repetition
 * is reported (minimum-noise estimator for a dedicated machine).
 * "symbols/sec" counts input symbols consumed by the automaton:
 * per-stream bytes summed over the batch, or the single input length
 * in sharded mode. Report recording and active-set accounting are
 * off, matching a deployment scan loop.
 */

#include <algorithm>
#include <iostream>
#include <vector>

#include "bench/common.hh"
#include "engine/parallel_runner.hh"
#include "util/table.hh"
#include "util/thread_pool.hh"
#include "util/timer.hh"
#include "zoo/registry.hh"

using namespace azoo;

namespace {

std::vector<std::vector<uint8_t>>
splitStreams(const std::vector<uint8_t> &input, size_t count)
{
    std::vector<std::vector<uint8_t>> streams;
    const size_t per = std::max<size_t>(1, input.size() / count);
    for (size_t pos = 0; pos < input.size(); pos += per) {
        const size_t len = std::min(per, input.size() - pos);
        streams.emplace_back(input.begin() + pos,
                             input.begin() + pos + len);
    }
    return streams;
}

/** Best-of-reps wall time of fn(), after one untimed warmup. */
double
bestSeconds(int reps, const std::function<void()> &fn)
{
    fn();
    double best = 1e300;
    for (int i = 0; i < reps; ++i) {
        Timer t;
        fn();
        best = std::min(best, t.seconds());
    }
    return best;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchConfig cfg = bench::parseBenchFlags(
        argc, argv, {"name", "streams", "reps", "engine", "json"});
    Cli cli(argc, argv,
            {"scale", "input", "sim", "seed", "full", "threads",
             "name", "streams", "reps", "engine", "json"});
    const std::string name = cli.get("name", "Snort");
    const auto streamCount =
        static_cast<size_t>(cli.getInt("streams", 16));
    const int reps = static_cast<int>(cli.getInt("reps", 3));
    const Expected<EngineKind> parsed = parseEngine(
        cli.get("engine", "nfa"),
        {EngineKind::kNfa, EngineKind::kLazyDfa, EngineKind::kAuto});
    if (!parsed.ok())
        usageError(cat("throughput_scaling: ", parsed.status().message()));
    const EngineKind engine = *parsed;
    bench::JsonReport json("throughput_scaling");

    zoo::Benchmark b = zoo::makeBenchmark(name, cfg.zoo);
    std::vector<uint8_t> input(b.input.begin(),
                               b.input.begin() + cfg.simBytes);
    auto streams = splitStreams(input, streamCount);

    std::vector<size_t> counts = {1, 2, 4, 8};
    const size_t hw = ThreadPool::hardwareThreads();
    if (std::find(counts.begin(), counts.end(), hw) == counts.end())
        counts.push_back(hw);

    std::cout << "Throughput scaling: " << name << " (scale="
              << cfg.zoo.scale << ", engine=" << engineName(engine) << "), "
              << input.size() << " input bytes, " << streams.size()
              << " streams, " << hw
              << " hardware threads, best of " << reps << " reps\n\n";

    SimOptions sim;
    sim.recordReports = false;
    sim.computeActiveSet = false;

    Table t({"Threads", "Batch MSym/s", "Speedup", "Shards",
             "Sharded MSym/s", "Speedup"});
    double batchBase = 0, shardBase = 0, serialRate = 0;
    uint64_t serialHandoffs = 0;
    const auto handoffs = [] {
        return obs::Registry::global().counterValue("engine.lazy.handoffs");
    };
    // Sanity anchor: the same engine serially, the whole input as one
    // stream on the one-thread runner.
    const std::vector<std::vector<uint8_t>> whole{input};
    for (size_t threads : counts) {
        ParallelOptions popts;
        popts.threads = threads;
        popts.engine = engine;
        popts.sim = sim;
        ParallelRunner runner(b.automaton, popts);

        uint64_t before = handoffs();
        const double batchSecs =
            bestSeconds(reps, [&] { runner.runBatch(streams); });
        const double batchRate = input.size() / batchSecs / 1e6;
        const uint64_t batchHandoffs = handoffs() - before;

        before = handoffs();
        const double shardSecs =
            bestSeconds(reps, [&] { runner.simulateSharded(input); });
        const double shardRate = input.size() / shardSecs / 1e6;
        const uint64_t shardHandoffs = handoffs() - before;

        if (threads == 1) {
            batchBase = batchRate;
            shardBase = shardRate;
            before = handoffs();
            serialRate = input.size() / bestSeconds(reps, [&] {
                runner.runBatch(whole);
            }) / 1e6;
            serialHandoffs = handoffs() - before;
        }
        t.addRow({std::to_string(threads),
                  Table::fixed(batchRate, 2),
                  Table::ratio(batchRate / batchBase, 2),
                  std::to_string(runner.shardCount()),
                  Table::fixed(shardRate, 2),
                  Table::ratio(shardRate / shardBase, 2)});
        json.add({name + "/batch", engineName(engine), threads,
                  batchRate * 1e6, batchHandoffs, {}});
        json.add({name + "/sharded", engineName(engine), threads,
                  shardRate * 1e6, shardHandoffs,
                  {{"shards", double(runner.shardCount())}}});
    }
    t.print(std::cout);

    std::cout << "\nserial " << engineName(engine) << ": "
              << Table::fixed(serialRate, 2) << " MSym/s\n";
    json.add({name + "/serial", engineName(engine), 1,
              serialRate * 1e6, serialHandoffs, {}});
    json.writeFile(cli.get("json"));
    return 0;
}
