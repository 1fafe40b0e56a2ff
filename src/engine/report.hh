/**
 * @file
 * Report records and simulation options/results shared by all
 * automata-processing engines.
 */

#ifndef AZOO_ENGINE_REPORT_HH
#define AZOO_ENGINE_REPORT_HH

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "core/automaton.hh"
#include "util/status.hh"

namespace azoo {

class RunGuard;

/** One pattern-match event: element @p element with user code @p code
 *  matched at input offset @p offset (0-based symbol index). */
struct Report {
    uint64_t offset = 0;
    ElementId element = kNoElement;
    uint32_t code = 0;

    bool
    operator==(const Report &o) const
    {
        return offset == o.offset && element == o.element &&
            code == o.code;
    }
    bool
    operator<(const Report &o) const
    {
        if (offset != o.offset)
            return offset < o.offset;
        if (element != o.element)
            return element < o.element;
        return code < o.code;
    }
};

/** Knobs controlling what a simulation records. */
struct SimOptions {
    /** Keep the full report vector (offset/element/code). */
    bool recordReports = true;
    /** Tally reports per report code (rule) into SimResult::byCode. */
    bool countByCode = false;
    /** Track enabled-state counts to compute the active set. */
    bool computeActiveSet = true;
    /** Stop recording (not counting) reports past this many. */
    uint64_t reportRecordLimit = ~uint64_t(0);
    /** Optional stop-conditions (deadline / symbol budget /
     *  cancellation), polled coarsely by every engine and session;
     *  see run_guard.hh. The guard must outlive the run; one guard
     *  may be shared across concurrent runs. */
    const RunGuard *guard = nullptr;
};

/** Outcome of simulating an automaton over an input stream. */
struct SimResult {
    uint64_t symbols = 0;        ///< input symbols consumed
    uint64_t reportCount = 0;    ///< total reports (even if unrecorded)
    std::vector<Report> reports; ///< recorded reports (may be capped)
    std::map<uint32_t, uint64_t> byCode; ///< reports per report code
    uint64_t totalEnabled = 0;   ///< sum of enabled STEs over cycles
    /** Cycles in which at least one report fired: the output-
     *  reporting pressure metric behind the D480's report-vector
     *  bottleneck (Wadden et al., HPCA 2018), which SpatialModel's
     *  stall penalty models. */
    uint64_t reportingCycles = 0;

    /** Non-OK when a RunGuard stopped the run early. The result then
     *  covers exactly the first `symbols` input symbols (a correct
     *  answer for that prefix), and guardStatus says why it stopped
     *  (kDeadlineExceeded / kCancelled / kLimitExceeded). */
    Status guardStatus;

    /** True when a RunGuard truncated this run. */
    bool truncated() const { return !guardStatus.ok(); }

    // Lazy-DFA statistics of planned runs; zero for other engines. These
    // are *not* part of the semantic result (two engines producing
    // identical reports may differ here), so equivalence checks must
    // compare the fields above, never the whole struct.
    /** Interned state-sets resident in the cache after this run. */
    uint64_t lazyStates = 0;

    /** Average active set: enabled STEs per input symbol. */
    double
    avgActiveSet() const
    {
        return symbols ? static_cast<double>(totalEnabled) / symbols
                       : 0.0;
    }

    /** Reports per input symbol. */
    double
    reportRate() const
    {
        return symbols ? static_cast<double>(reportCount) / symbols
                       : 0.0;
    }

    /** Fraction of cycles that produced any report. */
    double
    reportingCycleFraction() const
    {
        return symbols
            ? static_cast<double>(reportingCycles) / symbols : 0.0;
    }
};

/** Sort recorded reports into the canonical (offset, element, code)
 *  order every merged path (planned, sharded, batched) emits. Apply
 *  to a serial SimResult before comparing it against merged output. */
inline void
canonicalizeReports(SimResult &r)
{
    std::sort(r.reports.begin(), r.reports.end());
}

/**
 * Count @p batch into @p r: reportCount, reportingCycles (a cycle is
 * a distinct offset; @p lastOffset carries the last one counted
 * across batches), byCode under opts.countByCode, and records up to
 * opts.reportRecordLimit under opts.recordReports. The batch must be
 * in canonical order and start at or after the previous batch's last
 * offset, so batches settled in stream order count as one would.
 */
inline void
tallyReports(const std::vector<Report> &batch, const SimOptions &opts,
             SimResult &r, uint64_t &lastOffset)
{
    r.reportCount += batch.size();
    for (const Report &rep : batch) {
        if (rep.offset != lastOffset) {
            ++r.reportingCycles;
            lastOffset = rep.offset;
        }
        if (opts.countByCode)
            ++r.byCode[rep.code];
    }
    if (!opts.recordReports || r.reports.size() >= opts.reportRecordLimit)
        return;
    const size_t take = static_cast<size_t>(std::min<uint64_t>(
        batch.size(), opts.reportRecordLimit - r.reports.size()));
    r.reports.insert(r.reports.end(), batch.begin(), batch.begin() + take);
}

/**
 * The one merge rule of every composite engine: MultiDfaEngine's DFAs
 * and its planned fallback, and ParallelRunner's component shards,
 * are each a list of parts run with partOptions(), handed to add(),
 * and finished once with the caller's options. Every part runs over
 * the one automaton (a planned part skips the components of the
 * others), so its reports already carry the merged element ids.
 * PlannedSession counts its backends' reports with the same
 * tallyReports(), batch by batch as they settle.
 *
 * Every part records its complete report stream over the prefix it
 * consumed, so the merged result is exact over the shortest prefix
 * any part stopped at: reports at or past it are dropped, and
 * reportCount, reportingCycles and byCode are counted from the
 * merged stream. totalEnabled and the lazy-DFA statistics are summed
 * over the parts, so under a stop they may cover more than the
 * merged prefix.
 */
class PartMerger
{
  public:
    /** Merge parts of a run over @p len input symbols. */
    explicit PartMerger(uint64_t len) : len_(len), consumed_(len) {}

    /** Options every part runs with: record every report, no byCode,
     *  and the caller's guard and computeActiveSet. */
    static SimOptions
    partOptions(const SimOptions &caller)
    {
        SimOptions inner;
        inner.computeActiveSet = caller.computeActiveSet;
        inner.guard = caller.guard;
        return inner;
    }

    /** Add one part's result; its element ids are already the merged
     *  automaton's. A part the guard stopped records its stop. */
    void
    add(SimResult part)
    {
        if (reports_.empty()) {
            reports_ = std::move(part.reports);
        } else {
            reports_.insert(reports_.end(), part.reports.begin(),
                            part.reports.end());
        }
        out_.totalEnabled += part.totalEnabled;
        out_.lazyStates += part.lazyStates;
        if (part.truncated())
            stop(part.symbols, part.guardStatus);
    }

    /** Record a guard stop after @p symbols. The shortest stopped
     *  prefix wins; on a tie, the first stop's status is kept. */
    void
    stop(uint64_t symbols, const Status &st)
    {
        if (symbols < consumed_ || status_.ok()) {
            consumed_ = std::min(consumed_, symbols);
            status_ = st;
        }
    }

    /** The prefix the merged result covers so far: the input length
     *  until a stop. Parts added later need only run this far. */
    uint64_t consumed() const { return consumed_; }

    /** The merged result, with the caller's recording options applied
     *  once: canonical (offset, element, code) order, counts over the
     *  consumed prefix, then opts.recordReports and
     *  opts.reportRecordLimit. Call once; the merger is spent. */
    SimResult
    finish(const SimOptions &opts)
    {
        out_.symbols = consumed_;
        out_.guardStatus = status_;
        if (consumed_ < len_) {
            std::erase_if(reports_, [this](const Report &r) {
                return r.offset >= consumed_;
            });
        }
        if (!std::is_sorted(reports_.begin(), reports_.end()))
            std::sort(reports_.begin(), reports_.end());
        uint64_t lastOffset = ~uint64_t(0);
        tallyReports(reports_, opts, out_, lastOffset);
        return std::move(out_);
    }

  private:
    uint64_t len_;
    uint64_t consumed_;
    Status status_;
    /** Every part's reports, global ids, in arrival order. */
    std::vector<Report> reports_;
    /** The summed fields; the rest are filled by finish(). */
    SimResult out_;
};

} // namespace azoo

#endif // AZOO_ENGINE_REPORT_HH
