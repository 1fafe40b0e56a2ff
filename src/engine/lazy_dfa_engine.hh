/**
 * @file
 * The lazy DFA: an RE2-style lazily determinized executor with a
 * bounded transition cache, split into program, cache and cursor.
 *
 * MultiDfaEngine realises the paper's compiled-CPU speedup only for
 * components that fully determinize inside a state budget; everything
 * else — exactly the large-active-set benchmarks the paper uses to
 * motivate spatial architectures — used to drop to the enabled-set
 * interpreter. The lazy DFA closes that gap the way RE2 and modern
 * Hyperscan hybrids do: subset construction runs *on the fly* during
 * simulation, memoizing (state-set, symbol-class) -> next state-set
 * transitions in a cache with a byte budget. Hot input regions
 * therefore cost one table probe per symbol regardless of how many
 * NFA states are enabled.
 *
 * Ownership:
 *
 *  - LazyDfaProgram is immutable: a borrowed NfaExecImage (the
 *    interpreter's own CSR, labels, report codes and per-byte
 *    all-input index) plus the byte -> symbol-class map. Any number
 *    of cursors on any threads may run over one program.
 *  - LazyDfaCache is mutable and owned by one runner at a time: the
 *    interned state-sets, their transition rows and the report pool,
 *    charged against a byte budget. It never evicts: a transition
 *    that would exceed the budget is refused, and its owner hands
 *    the run to the interpreter and frees the cache. Block and
 *    streamed runs share this one policy and differ only in budget.
 *  - LazyDfaCursor is one run's position: a state id, valid until
 *    the cache is released, and the stream position.
 *
 * A DFA state is a sorted set of image ids: exactly NfaEngine's
 * edge-enabled set for the next cycle (all-input starts, permanently
 * enabled, excluded). DFA ids *are* the image's ids, so a cursor's
 * member set (LazyDfaCache::members()) seeds an interpreter cursor
 * over the same image exactly (EngineScratch::enable() per member),
 * opened at the DFA's position or already running the ids above the
 * DFA's.
 * LazyDfaProgram::feed() holds the only lazy symbol loop, and
 * PlannedSession is its only runner: `--engine lazydfa` is a planned
 * program with a fixed plan (fixedPlan() in planner.hh).
 *
 * Counter components cannot be determinized (counter values are not
 * part of the subset state), so that plan routes them to the
 * interpreter beside the DFA, mirroring how hybrid engines mix DFA
 * and NFA subsystems.
 *
 * Determinism: a feed's reports carry image ids and, within each
 * cycle, come out in (element, code) order; reportCount,
 * reportingCycles, byCode and totalEnabled are exactly the
 * interpreter's over the same ids.
 */

#ifndef AZOO_ENGINE_LAZY_DFA_ENGINE_HH
#define AZOO_ENGINE_LAZY_DFA_ENGINE_HH

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "core/automaton.hh"
#include "engine/exec_image.hh"
#include "engine/report.hh"

namespace azoo {

class LazyDfaCache;

/** One lazy-DFA run's position; see the file comment. */
struct LazyDfaCursor {
    /** Current DFA state id in the cache. */
    uint32_t state = ~uint32_t(0);
    /** Symbols fed since begin() (the stream position). */
    uint64_t pos = 0;
};

/** The immutable tables of a lazy DFA over the first ids of an
 *  interpreter image. */
class LazyDfaProgram
{
  public:
    /** Determinizes ids [0, @p count) of @p image, which it borrows
     *  (the storage must outlive the program). Ids from @p count up
     *  must be other components (no edge from below reaches them);
     *  they never join a state-set. panic()s when the first @p count
     *  ids hold a counter. */
    LazyDfaProgram(const NfaExecImage &image, size_t count);

    /** Open a run: stream position 0, the start-of-data set. */
    void begin(LazyDfaCache &cache, LazyDfaCursor &cursor) const;

    /**
     * Advance @p cursor over @p len bytes through @p cache. Reports
     * (local ids, canonical order), reportCount, reportingCycles,
     * byCode, totalEnabled, symbols and the lazy statistics
     * accumulate into @p result. opts.guard is polled every
     * kGuardCheckIntervalSymbols symbols of stream position. Returns
     * the bytes consumed: short when the guard stopped the run
     * (result.guardStatus says so) or when the full cache could not
     * take the next transition (the cursor then sits before the
     * symbol that did not fit). Cache hits and misses are flushed to
     * the metrics once per call.
     */
    size_t feed(LazyDfaCache &cache, LazyDfaCursor &cursor,
                const uint8_t *data, size_t len, const SimOptions &opts,
                SimResult &result) const;

    /** Input-symbol equivalence classes. */
    uint32_t symbolClasses() const { return numClasses_; }

  private:
    friend class LazyDfaCache;

    NfaExecImage t_;
    uint32_t count_;
    /** Start-of-data ids below count_: the cycle-0 state-set. */
    std::span<const ElementId> start_;
    /** Bytes indistinguishable to every label share a class, and so
     *  a transition column. */
    SymbolClasses classes_;
    uint32_t numClasses_ = 1;
};

/** The bounded transition cache of one lazy-DFA runner; serves one
 *  program. */
class LazyDfaCache
{
  public:
    /** A cache whose transitions stop at @p budgetBytes: a hard cap
     *  on what transitions charge (begin() interns the start state
     *  regardless). */
    explicit LazyDfaCache(size_t budgetBytes) : budget_(budgetBytes)
    {
        pool_.emplace_back(); // index 0 = the empty report list
    }

    /** Free every interned state and all storage (a stopped cache's
     *  owner no longer needs it); the hit and miss counts stay.
     *  Cursors over it are invalid from then on. */
    void release();

    /** The sorted member set of DFA state @p state (valid until
     *  release()). */
    const std::vector<uint32_t> &
    members(uint32_t state) const
    {
        return members_[state];
    }

    /** State-sets currently interned. */
    uint64_t states() const { return members_.size(); }
    /** Computed (state, class) transition cells currently cached. */
    uint64_t transitions() const { return cachedTransitions_; }
    /** Accounted footprint in bytes (what the budget is charged). */
    uint64_t bytesUsed() const { return bytesUsed_; }
    /** Cached transitions taken / computed (cumulative). */
    uint64_t hits() const { return hits_; }
    uint64_t misses() const { return misses_; }

    /** Heap bytes of the owned storage (capacities), excluding the
     *  object itself. */
    size_t footprintBytes() const;

  private:
    friend class LazyDfaProgram;
    static constexpr uint32_t kUnknown = ~uint32_t(0);

    /** Intern a sorted local-id set; returns its state id. */
    uint32_t intern(const LazyDfaProgram &p,
                    const std::vector<uint32_t> &set);

    /** Intern a sorted (element, code) report list; 0 = empty. */
    uint32_t internReports(
        const std::vector<std::pair<ElementId, uint32_t>> &reps);

    /** Compute and cache the transition of (@p cur, @p cls).
     *  Returns the filled cell, or kNoCell when it would exceed the
     *  budget. */
    static constexpr size_t kNoCell = ~size_t(0);
    size_t fill(const LazyDfaProgram &p, uint32_t cur, uint32_t cls);

    size_t budget_;

    /** members_[sid] = sorted local-id set of DFA state sid. */
    std::vector<std::vector<uint32_t>> members_;
    /** next_[sid * classes + cls]; kUnknown = not yet computed. */
    std::vector<uint32_t> next_;
    /** reportIdx_ parallel to next_; index into pool_ (0 = none). */
    std::vector<uint32_t> reportIdx_;
    /** Report lists, entries sorted by (element, code); pool_[0] is
     *  the empty list. */
    std::vector<std::vector<std::pair<ElementId, uint32_t>>> pool_;
    std::map<std::vector<std::pair<ElementId, uint32_t>>, uint32_t>
        poolIds_;
    /** FNV hash of members -> state ids with that hash. */
    std::unordered_map<uint64_t, std::vector<uint32_t>> buckets_;
    uint64_t bytesUsed_ = 0;
    uint64_t cachedTransitions_ = 0;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
    /** Cached start-state id. */
    uint32_t startState_ = kUnknown;

    // Transition-computation scratch, charged to the budget.
    std::vector<uint8_t> inNext_;
    std::vector<uint32_t> succ_;
    std::vector<std::pair<ElementId, uint32_t>> reps_;
};

} // namespace azoo

#endif // AZOO_ENGINE_LAZY_DFA_ENGINE_HH
