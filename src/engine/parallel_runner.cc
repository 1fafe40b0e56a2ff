#include "engine/parallel_runner.hh"

#include <numeric>

#include "obs/obs.hh"
#include "util/fault.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace azoo {

namespace {

/** One stream on a slot's @p engine: one simulate(), or
 *  @p chunkBytes slices fed to a PlannedSession over its program. */
SimResult
runStream(PlannedEngine &engine, const uint8_t *input, size_t len,
          const SimOptions &opts, size_t chunkBytes)
{
    if (chunkBytes == 0)
        return engine.simulate(input, len, opts);
    PlannedSession sess(engine.program());
    sess.options = opts;
    feedChunks(input, len, chunkBytes, [&](const uint8_t *p, size_t n) {
        return sess.feed(p, n);
    });
    return sess.results();
}

/** An empty result carrying @p st: a run that failed outright. */
SimResult
failedRun(Status st)
{
    SimResult r;
    r.guardStatus = std::move(st);
    return r;
}

} // namespace

ParallelRunner::ParallelRunner(
    const Automaton &a, ParallelOptions opts,
    const std::vector<analysis::ComponentProfile> &profiles)
    : opts_(std::move(opts))
{
    const size_t threads =
        opts_.threads ? opts_.threads : ThreadPool::hardwareThreads();
    pool_ = std::make_unique<ThreadPool>(threads);
    if (opts_.engine == EngineKind::kMultiDfa) {
        // Refused by name, compiling nothing: every run fails instead
        // of silently using another engine.
        refused_ = Status(ErrorCode::kInvalidArgument,
                          "ParallelRunner runs nfa|lazydfa|auto, not "
                          "multidfa");
        return;
    }
    // kAuto infers profiles once, when none are given: the slots'
    // program plans from them, and the shards mask that plan.
    std::vector<analysis::ComponentProfile> inferred;
    if (opts_.engine == EngineKind::kAuto && profiles.empty())
        inferred = analysis::inferProfiles(a, opts_.plan.infer);
    const auto &planned = inferred.empty() ? profiles : inferred;
    const auto program =
        compileProgram(opts_.engine, a, opts_.plan, planned);
    for (size_t s = 0; s < pool_->size(); ++s)
        slots_.push_back(std::make_unique<PlannedEngine>(program));
    buildShards(a, threads, program->plan(), planned);
}

ParallelRunner::~ParallelRunner() = default;

size_t
ParallelRunner::threads() const
{
    return pool_->size();
}

void
ParallelRunner::buildShards(
    const Automaton &a, size_t groups, const EnginePlan &plan,
    const std::vector<analysis::ComponentProfile> &profiles)
{
    if (a.size() == 0)
        return;

    // Components over activation *and* reset edges: a counter must
    // stay in the same shard as everything that counts or resets it.
    uint32_t count = 0;
    const std::vector<uint32_t> compOf = a.connectedComponents(count);
    std::vector<uint64_t> compSize(count, 0);
    for (uint32_t c : compOf)
        ++compSize[c];

    // LPT: biggest component first into the currently lightest shard.
    const size_t g = std::min<size_t>(groups, count);
    std::vector<uint32_t> order(count);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](uint32_t x, uint32_t y) {
                         return compSize[x] > compSize[y];
                     });
    std::vector<uint64_t> load(g, 0);
    std::vector<uint32_t> shardOf(count);
    for (uint32_t c : order) {
        const size_t s = static_cast<size_t>(
            std::min_element(load.begin(), load.end()) - load.begin());
        shardOf[c] = static_cast<uint32_t>(s);
        load[s] += compSize[c];
    }

    // Each shard is the runner's plan with every other component
    // skipped, compiled in place over the same automaton, so its
    // reports carry the automaton's own ids.
    for (size_t s = 0; s < g; ++s) {
        EnginePlan masked;
        masked.decisions.reserve(plan.decisions.size());
        for (const ComponentDecision &d : plan.decisions) {
            masked.add(d.componentId, shardOf[d.componentId] == s
                                          ? d.backend
                                          : PlanBackend::kSkip);
        }
        shards_.push_back(std::make_unique<PlannedEngine>(
            std::make_shared<const PlannedProgram>(
                a, std::move(masked), opts_.plan, profiles)));
    }
    if (obs::kEnabled) {
        // LPT balance is visible as the spread of this distribution.
        obs::Histogram &h =
            obs::Registry::global().histogram("runner.shard.states");
        for (uint64_t states : load)
            h.record(states);
    }
}

BatchResult
ParallelRunner::runBatch(
    const std::vector<std::vector<uint8_t>> &streams) const
{
    BatchResult out;
    out.perStream.resize(streams.size());
    out.perStreamStatus.resize(streams.size());
    obs::ScopedTimer wall(
        obs::Registry::global().histogram("runner.batch.wall_us"));
    pool_->parallelFor(streams.size(), [&](size_t slot, size_t i) {
        // Failures are captured per stream so one bad stream (or an
        // injected worker fault) never kills the batch; the other
        // streams complete exactly as a serial run would.
        try {
            if (!refused_.ok())
                throw StatusError(refused_);
            if (fault::shouldFail(fault::Point::kAllocFail)) {
                throw StatusError(
                    Status(ErrorCode::kResourceExhausted,
                           cat("stream ", i,
                               ": worker allocation failed")));
            }
            out.perStream[i] =
                runStream(*slots_[slot], streams[i].data(),
                          streams[i].size(), opts_.sim, opts_.chunkBytes);
            canonicalizeReports(out.perStream[i]);
        } catch (const StatusError &e) {
            out.perStream[i] = SimResult();
            out.perStreamStatus[i] = e.status();
        } catch (const std::exception &e) {
            out.perStream[i] = SimResult();
            out.perStreamStatus[i] =
                Status(ErrorCode::kInternal, e.what());
        }
    });
    for (size_t i = 0; i < out.perStream.size(); ++i) {
        if (!out.perStreamStatus[i].ok()) {
            ++out.failedStreams;
            continue;
        }
        const SimResult &r = out.perStream[i];
        out.totalSymbols += r.symbols;
        out.totalReports += r.reportCount;
    }
    if (obs::kEnabled) {
        obs::Registry &reg = obs::Registry::global();
        reg.counter("runner.batch.streams").add(streams.size());
        reg.counter("runner.batch.failed_streams")
            .add(out.failedStreams);
        reg.counter("runner.batch.symbols").add(out.totalSymbols);
        reg.counter("runner.batch.reports").add(out.totalReports);
    }
    return out;
}

SimResult
ParallelRunner::simulateSharded(const uint8_t *input, size_t len) const
{
    if (!refused_.ok())
        return failedRun(refused_);
    PartMerger merger(len);
    if (shards_.empty())
        return merger.finish(opts_.sim);
    const SimOptions inner = PartMerger::partOptions(opts_.sim);

    obs::ScopedTimer wall(
        obs::Registry::global().histogram("runner.sharded.wall_us"));

    std::vector<SimResult> parts(shards_.size());
    auto runShards = [&](size_t simLen,
                         const SimOptions &shardOpts) -> Status {
        try {
            pool_->parallelFor(shards_.size(), [&](size_t s) {
                if (fault::shouldFail(fault::Point::kAllocFail)) {
                    throw StatusError(
                        Status(ErrorCode::kResourceExhausted,
                               cat("shard ", s,
                                   ": worker allocation failed")));
                }
                parts[s] = shards_[s]->simulate(input, simLen, shardOpts);
            });
        } catch (const StatusError &e) {
            return e.status();
        }
        return Status();
    };

    if (Status st = runShards(len, inner); !st.ok()) {
        // A failed shard invalidates the merged view (its reports are
        // missing); return an empty result carrying the error instead
        // of a silently wrong one.
        return failedRun(st);
    }

    for (const SimResult &p : parts) {
        if (p.truncated())
            merger.stop(p.symbols, p.guardStatus);
    }
    if (merger.consumed() < len) {
        // Shards poll the guard independently, so on a wall-clock or
        // injected stop they consume *different* prefixes — summing
        // their counters (totalEnabled, per-shard report streams)
        // would mix coverage of different symbol ranges, and even a
        // shard whose symbols == consumed may have partially counted
        // the poll window beyond it. Re-simulate every shard over
        // exactly the common prefix with the guard off: the result is
        // then exact for [0, consumed), and the cost is bounded by
        // work the shards already did. (Symbol-budget guards stop all
        // shards at the same poll point, so this path is really about
        // deadline/cancellation/injected stops.)
        SimOptions replay = inner;
        replay.guard = nullptr;
        if (Status st = runShards(
                static_cast<size_t>(merger.consumed()), replay);
            !st.ok())
            return failedRun(st);
    }

    for (SimResult &p : parts)
        merger.add(std::move(p));
    SimResult merged = merger.finish(opts_.sim);
    if (merged.truncated())
        obs::noteGuardStop("runner.sharded", merged.guardStatus.code());
    return merged;
}

} // namespace azoo
