/**
 * @file
 * ParallelRunner: multi-threaded automata simulation with serial
 * semantics.
 *
 * The suite's engines are single-threaded by design; this layer
 * shards work along the two axes the workloads naturally expose:
 *
 *  - **Stream-level** (runBatch): a batch of independent input
 *    streams (packets, disk-image chunks, DNA reads) fans out across
 *    the pool. The runner compiles one PlannedProgram for the
 *    selected EngineKind (compileProgram(): kNfa's and kLazyDfa's
 *    fixed plans, or kAuto's profile plan), and each worker slot
 *    owns a PlannedEngine cursor over it, whose scratch and lazy
 *    cache are reused across the slot's streams (once the cache
 *    fills, the slot interprets from then on). A chunked stream is
 *    a PlannedSession over the same program: nothing compiles per
 *    slot or per stream.
 *
 *  - **Component-level** (simulateSharded): the automaton's connected
 *    components (activation *and* reset edges, so counters never
 *    split from their enable/reset sources) are packed into one shard
 *    per thread by size-balanced LPT, and each shard simulates the
 *    same input concurrently. Each shard is a PlannedEngine over the
 *    runner's plan with every component outside the shard skipped,
 *    compiled in place over the same automaton (kAuto's profiles,
 *    given or inferred once, serve the slots and every shard), so
 *    shard reports already carry the automaton's element ids.
 *
 * Determinism guarantee: results are *canonical* — per stream,
 * reports are sorted by (offset, element, code); a batch is ordered
 * by stream index. Canonical output is identical for every thread
 * count, and equals the serial engine's output after
 * canonicalizeReports() (the serial engine emits same-cycle reports
 * in internal propagation order, which the canonical order
 * normalizes). Aggregate counters (reportCount, totalEnabled,
 * reportingCycles, byCode) match the serial engine exactly.
 */

#ifndef AZOO_ENGINE_PARALLEL_RUNNER_HH
#define AZOO_ENGINE_PARALLEL_RUNNER_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "core/automaton.hh"
#include "engine/planner.hh"
#include "engine/report.hh"

namespace azoo {

class ThreadPool;

/** Configuration for a ParallelRunner. */
struct ParallelOptions {
    /** Worker threads; 0 means all hardware threads. */
    size_t threads = 0;
    /** Batch mode: feed each stream to its cursor in chunks of this
     *  many bytes (0 = one monolithic simulate()). Chunking never
     *  changes results; it exists to exercise and measure the
     *  streaming path under parallelism. */
    size_t chunkBytes = 0;
    /** kNfa, kLazyDfa or kAuto; under kMultiDfa every stream and the
     *  sharded result fail with kInvalidArgument. */
    EngineKind engine = EngineKind::kNfa;
    /** Planning knobs. The runner compiles one PlannedProgram
     *  (compileProgram()), and each worker slot owns a PlannedEngine
     *  cursor over it; chunked streams are PlannedSessions over the
     *  same program, and each shard compiles that program's plan
     *  with the other shards' components skipped. */
    PlanOptions plan;
    /** Per-stream simulation options. */
    SimOptions sim;
};

/** Outcome of a batch run; perStream[i] belongs to streams[i]. */
struct BatchResult {
    std::vector<SimResult> perStream;
    /** Parallel to perStream: OK when the stream completed. A failed
     *  stream leaves an empty SimResult and its error here; the other
     *  streams still complete and stay bit-identical to a serial run
     *  (worker failures never kill the batch). */
    std::vector<Status> perStreamStatus;
    uint64_t totalSymbols = 0;
    uint64_t totalReports = 0;
    /** Streams whose perStreamStatus is non-OK. */
    uint64_t failedStreams = 0;

    bool allOk() const { return failedStreams == 0; }
};

/**
 * Parallel driver over one automaton.
 *
 * Construction compiles the selected engine only: one program for
 * the worker slots and one masked program per component shard for
 * sharded mode; the automaton need not outlive the runner. runBatch() and
 * simulateSharded() can then be called repeatedly (but not
 * concurrently with each other from multiple threads — the runner
 * owns one pool).
 */
class ParallelRunner
{
  public:
    /** kAuto plans from @p profiles as compileProgram() does. */
    explicit ParallelRunner(const Automaton &a,
                            ParallelOptions opts = ParallelOptions(),
                            const std::vector<analysis::ComponentProfile>
                                &profiles = {});
    ~ParallelRunner();

    /** Worker threads actually running. */
    size_t threads() const;

    /** Component shards built for simulateSharded(). */
    size_t shardCount() const { return shards_.size(); }

    /** Simulate each stream independently; canonical per-stream
     *  results in input order, identical for any thread count. */
    BatchResult
    runBatch(const std::vector<std::vector<uint8_t>> &streams) const;

    /** Simulate one input with the automaton sharded by connected
     *  components; canonical result identical to the (canonicalized)
     *  serial NfaEngine result. */
    SimResult simulateSharded(const uint8_t *input, size_t len) const;

    SimResult
    simulateSharded(const std::vector<uint8_t> &input) const
    {
        return simulateSharded(input.data(), input.size());
    }

  private:
    /** Pack the components of @p a into at most @p groups shards and
     *  compile each one's mask of @p plan. */
    void buildShards(const Automaton &a, size_t groups,
                     const EnginePlan &plan,
                     const std::vector<analysis::ComponentProfile>
                         &profiles);

    ParallelOptions opts_;
    /** Why opts_.engine does not run here (kMultiDfa): every stream
     *  and the sharded result fail with it, and nothing compiles. */
    Status refused_;
    std::unique_ptr<ThreadPool> pool_;
    /** One per shard, over the shard's masked program; one worker at
     *  a time. */
    std::vector<std::unique_ptr<PlannedEngine>> shards_;
    /** Per worker slot, over one program: the slot-indexed
     *  parallelFor guarantees exclusive slot ownership, so scratches
     *  and lazy caches are reused lock-free across streams. */
    std::vector<std::unique_ptr<PlannedEngine>> slots_;
};

} // namespace azoo

#endif // AZOO_ENGINE_PARALLEL_RUNNER_HH
