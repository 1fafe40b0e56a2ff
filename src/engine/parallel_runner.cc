#include "engine/parallel_runner.hh"

#include <numeric>

#include "engine/streaming.hh"
#include "obs/obs.hh"
#include "util/fault.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"
#include "util/union_find.hh"

namespace azoo {

ParallelRunner::ParallelRunner(const Automaton &a, ParallelOptions opts)
    : a_(a), opts_(std::move(opts)), engine_(a)
{
    const size_t threads =
        opts_.threads ? opts_.threads : ThreadPool::hardwareThreads();
    pool_ = std::make_unique<ThreadPool>(threads);
    slotScratch_.resize(pool_->size());
    if (opts_.engine == ParallelEngine::kLazyDfa) {
        LazyDfaOptions lo;
        lo.cacheBytes = opts_.lazyCacheBytes;
        slotLazy_.resize(pool_->size());
        for (auto &e : slotLazy_)
            e = std::make_unique<LazyDfaEngine>(a_, lo);
    } else if (opts_.engine == ParallelEngine::kPlanned) {
        profiles_ = analysis::inferProfiles(a_, opts_.plan.infer);
        slotPlanned_.resize(pool_->size());
        for (auto &e : slotPlanned_) {
            e = std::make_unique<PlannedEngine>(a_, profiles_,
                                                opts_.plan);
        }
    }
    buildShards(threads);
}

ParallelRunner::~ParallelRunner() = default;

size_t
ParallelRunner::threads() const
{
    return pool_->size();
}

void
ParallelRunner::buildShards(size_t groups)
{
    const size_t n = a_.size();
    if (n == 0)
        return;

    // Components over activation *and* reset edges: a counter must
    // stay in the same shard as everything that counts or resets it.
    UnionFind uf(n);
    for (ElementId i = 0; i < n; ++i) {
        for (auto t : a_.element(i).out)
            uf.unite(i, t);
        for (auto t : a_.element(i).resetOut)
            uf.unite(i, t);
    }

    // Component sizes, keyed by root.
    std::vector<uint32_t> compOf(n);
    std::vector<uint32_t> roots;
    std::vector<uint64_t> compSize;
    std::vector<uint32_t> compIndex(n, ~uint32_t(0));
    for (ElementId i = 0; i < n; ++i) {
        const uint32_t r = uf.find(i);
        if (compIndex[r] == ~uint32_t(0)) {
            compIndex[r] = static_cast<uint32_t>(roots.size());
            roots.push_back(r);
            compSize.push_back(0);
        }
        compOf[i] = compIndex[r];
        ++compSize[compIndex[r]];
    }

    // LPT: biggest component first into the currently lightest shard.
    const size_t g = std::min(groups, roots.size());
    std::vector<uint32_t> order(roots.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](uint32_t a, uint32_t b) {
                         return compSize[a] > compSize[b];
                     });
    std::vector<uint64_t> load(g, 0);
    std::vector<uint32_t> shardOf(roots.size());
    for (uint32_t c : order) {
        const size_t s = static_cast<size_t>(
            std::min_element(load.begin(), load.end()) - load.begin());
        shardOf[c] = static_cast<uint32_t>(s);
        load[s] += compSize[c];
    }

    // Materialize the shard sub-automata, elements in original id
    // order so per-shard behaviour is reproducible.
    shards_.resize(g);
    for (ElementId i = 0; i < n; ++i)
        shards_[shardOf[compOf[i]]].origId.push_back(i);
    for (size_t s = 0; s < shards_.size(); ++s) {
        shards_[s].sub = subAutomaton(a_, shards_[s].origId,
                                      a_.name() + "/shard" +
                                          std::to_string(s));
        shards_[s].engine =
            std::make_unique<NfaEngine>(shards_[s].sub);
        if (opts_.engine == ParallelEngine::kLazyDfa) {
            LazyDfaOptions lo;
            lo.cacheBytes = opts_.lazyCacheBytes;
            shards_[s].lazy =
                std::make_unique<LazyDfaEngine>(shards_[s].sub, lo);
        } else if (opts_.engine == ParallelEngine::kPlanned) {
            // Profiles are per-automaton, so each shard infers its
            // own over its sub-automaton (construction-time only).
            shards_[s].planned =
                std::make_unique<PlannedEngine>(shards_[s].sub,
                                                opts_.plan);
        }
    }
    if (obs::kEnabled) {
        // LPT balance is visible as the spread of this distribution.
        obs::Histogram &h =
            obs::Registry::global().histogram("runner.shard.states");
        for (const Shard &sh : shards_)
            h.record(sh.sub.size());
    }
}

BatchResult
ParallelRunner::runBatch(
    const std::vector<std::vector<uint8_t>> &streams) const
{
    BatchResult out;
    out.perStream.resize(streams.size());
    out.perStreamStatus.resize(streams.size());
    if (opts_.chunkBytes != 0 &&
        opts_.engine == ParallelEngine::kLazyDfa) {
        // Chunked feeding runs on StreamingSession, which is an
        // interpreter; the lazy-DFA engine has no incremental API.
        // Fail every stream loudly instead of silently simulating on
        // a different engine than the caller configured.
        const Status st(
            ErrorCode::kInvalidArgument,
            "chunkBytes requires ParallelEngine::kNfa (the lazy-DFA "
            "engine has no streaming API)");
        for (size_t i = 0; i < streams.size(); ++i)
            out.perStreamStatus[i] = st;
        out.failedStreams = streams.size();
        return out;
    }
    obs::ScopedTimer wall(
        obs::Registry::global().histogram("runner.batch.wall_us"));
    pool_->parallelFor(streams.size(), [&](size_t slot, size_t i) {
        // Failures are captured per stream so one bad stream (or an
        // injected worker fault) never kills the batch; the other
        // streams complete exactly as a serial run would.
        try {
            if (fault::shouldFail(fault::Point::kAllocFail)) {
                throw StatusError(
                    Status(ErrorCode::kResourceExhausted,
                           cat("stream ", i,
                               ": worker allocation failed")));
            }
            if (opts_.chunkBytes != 0 &&
                opts_.engine == ParallelEngine::kPlanned) {
                PlannedSession sess(a_, profiles_, opts_.plan);
                sess.options = opts_.sim;
                const auto &in = streams[i];
                for (size_t pos = 0; pos < in.size();) {
                    const size_t want = std::min(
                        opts_.chunkBytes, in.size() - pos);
                    const size_t got =
                        sess.feed(in.data() + pos, want);
                    pos += got;
                    if (got < want)
                        break;
                }
                out.perStream[i] = sess.results();
            } else if (opts_.chunkBytes != 0) {
                StreamingSession sess(a_);
                sess.options = opts_.sim;
                const auto &in = streams[i];
                for (size_t pos = 0; pos < in.size();) {
                    const size_t want = std::min(
                        opts_.chunkBytes, in.size() - pos);
                    const size_t got =
                        sess.feed(in.data() + pos, want);
                    pos += got;
                    // A short feed means the guard stopped the
                    // session; further chunks would be refused.
                    if (got < want)
                        break;
                }
                out.perStream[i] = sess.results();
            } else if (opts_.engine == ParallelEngine::kPlanned) {
                out.perStream[i] =
                    slotPlanned_[slot]->simulate(streams[i],
                                                 opts_.sim);
            } else if (opts_.engine == ParallelEngine::kLazyDfa) {
                out.perStream[i] =
                    slotLazy_[slot]->simulate(streams[i], opts_.sim);
            } else {
                out.perStream[i] = engine_.simulate(
                    streams[i], slotScratch_[slot], opts_.sim);
            }
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
        out.totalLazyFlushes += r.lazyFlushes;
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
    SimResult merged;
    merged.symbols = len;
    if (shards_.empty())
        return merged;

    // Shards record every report internally (the merge needs full
    // offset streams to reconstruct reportingCycles and byCode
    // exactly); the caller's recording options apply after the merge.
    SimOptions inner;
    inner.recordReports = true;
    inner.reportRecordLimit = ~uint64_t(0);
    inner.countByCode = false;
    inner.computeActiveSet = opts_.sim.computeActiveSet;
    inner.guard = opts_.sim.guard;

    obs::ScopedTimer wall(
        obs::Registry::global().histogram("runner.sharded.wall_us"));

    std::vector<SimResult> parts(shards_.size());
    auto runShards = [&](size_t simLen,
                         const SimOptions &shardOpts) -> Status {
        try {
            pool_->parallelFor(shards_.size(), [&](size_t s) {
                const Shard &sh = shards_[s];
                if (fault::shouldFail(fault::Point::kAllocFail)) {
                    throw StatusError(
                        Status(ErrorCode::kResourceExhausted,
                               cat("shard ", s,
                                   ": worker allocation failed")));
                }
                if (sh.planned) {
                    parts[s] = sh.planned->simulate(input, simLen,
                                                    shardOpts);
                } else if (sh.lazy) {
                    parts[s] =
                        sh.lazy->simulate(input, simLen, shardOpts);
                } else {
                    parts[s] = sh.engine->simulate(
                        input, simLen, sh.scratch, shardOpts);
                }
                for (Report &r : parts[s].reports)
                    r.element = sh.origId[r.element];
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
        SimResult failed;
        failed.guardStatus = st;
        return failed;
    }

    // Guard truncation reconciliation: if any shard stopped early,
    // the merged result covers only the prefix every shard consumed.
    uint64_t consumed = len;
    for (const SimResult &p : parts) {
        if (!p.guardStatus.ok()) {
            consumed = std::min(consumed, p.symbols);
            if (merged.guardStatus.ok())
                merged.guardStatus = p.guardStatus;
        }
    }
    merged.symbols = consumed;

    if (consumed < len) {
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
        obs::noteGuardStop("runner.sharded",
                           merged.guardStatus.code());
        SimOptions replay = inner;
        replay.guard = nullptr;
        if (Status st = runShards(static_cast<size_t>(consumed),
                                  replay);
            !st.ok()) {
            SimResult failed;
            failed.guardStatus = st;
            return failed;
        }
    }

    for (const SimResult &p : parts) {
        merged.totalEnabled += p.totalEnabled;
        merged.lazyFlushes += p.lazyFlushes;
        merged.lazyStates += p.lazyStates;
        merged.lazyFallbackComponents += p.lazyFallbackComponents;
        merged.reports.insert(merged.reports.end(), p.reports.begin(),
                              p.reports.end());
    }
    if (consumed < len) {
        std::erase_if(merged.reports, [consumed](const Report &r) {
            return r.offset >= consumed;
        });
    }
    merged.reportCount = merged.reports.size();
    std::sort(merged.reports.begin(), merged.reports.end());

    // A reporting cycle is a distinct offset in the full report
    // stream (the serial engine counts cycles with >= 1 report).
    uint64_t lastOffset = ~uint64_t(0);
    for (const Report &r : merged.reports) {
        if (r.offset != lastOffset) {
            ++merged.reportingCycles;
            lastOffset = r.offset;
        }
        if (opts_.sim.countByCode)
            ++merged.byCode[r.code];
    }

    if (!opts_.sim.recordReports)
        merged.reports.clear();
    else if (merged.reports.size() > opts_.sim.reportRecordLimit)
        merged.reports.resize(
            static_cast<size_t>(opts_.sim.reportRecordLimit));
    return merged;
}

} // namespace azoo
