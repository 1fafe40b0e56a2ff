#include "engine/nfa_engine.hh"

#include <algorithm>

#include "engine/run_guard.hh"
#include "obs/obs.hh"
#include "util/logging.hh"

namespace azoo {

namespace {

/** Per-run metrics flush (never per symbol); references are cached
 *  after the first run so the steady-state cost is a few relaxed
 *  fetch_adds per simulate() call. */
void
noteNfaRun(const SimResult &res, bool activeSet)
{
    if (!obs::kEnabled)
        return;
    obs::Registry &reg = obs::Registry::global();
    static obs::Counter &runs = reg.counter("engine.nfa.runs");
    static obs::Counter &symbols = reg.counter("engine.nfa.symbols");
    static obs::Counter &reports = reg.counter("engine.nfa.reports");
    static obs::Histogram &active =
        reg.histogram("engine.nfa.active_avg");
    runs.inc();
    symbols.add(res.symbols);
    reports.add(res.reportCount);
    if (activeSet && res.symbols)
        active.record(res.totalEnabled / res.symbols);
}

void
noteConstruction(const char *name)
{
    if (!obs::kEnabled)
        return;
    obs::Registry::global().counter(name).inc();
}

} // namespace

NfaEngine::NfaEngine(const Automaton &a) : NfaEngine(a, {}) {}

NfaEngine::NfaEngine(const Automaton &a,
                     std::span<const ElementId> members)
    : owned_(std::make_unique<NfaExecTables>(
          NfaExecTables::compile(a, members)))
    , t_(owned_->view())
{
    noteConstruction("engine.nfa.compiles");
}

NfaEngine::NfaEngine(const NfaExecImage &image)
    : t_(image)
{
    // Zero-copy adoption: no per-element work happens here — the
    // image is used as-is, which is the artifact layer's mmap
    // cold-start contract (docs/ARTIFACT_FORMAT.md).
    noteConstruction("engine.nfa.image_adoptions");
}

NfaEngine::NfaEngine(const NfaEngine &base, ElementId first)
    : owned_(std::make_unique<NfaExecTables>()), t_(base.t_)
{
    // Id lists are ascending: the ids from first up are suffixes.
    auto from = [first](std::span<const ElementId> ids) {
        return ids.subspan(static_cast<size_t>(
            std::lower_bound(ids.begin(), ids.end(), first) - ids.begin()));
    };
    t_.allInput = from(t_.allInput);
    t_.startOfData = from(t_.startOfData);
    NfaExecTables &cut = *owned_;
    cut.maiBegin.push_back(0);
    for (uint32_t s = 0; s < 256; ++s) {
        const auto run = from(t_.maiTarget.subspan(
            t_.maiBegin[s], t_.maiBegin[s + 1] - t_.maiBegin[s]));
        cut.maiTarget.insert(cut.maiTarget.end(), run.begin(), run.end());
        cut.maiBegin.push_back(static_cast<uint32_t>(cut.maiTarget.size()));
    }
    t_.maiBegin = cut.maiBegin;
    t_.maiTarget = cut.maiTarget;
}

void
NfaEngine::begin(EngineScratch &scratch) const
{
    resume(scratch, 0);
    // Start-of-data states are enabled for cycle 0 only.
    for (auto id : t_.startOfData)
        scratch.enable(id);
}

void
NfaEngine::resume(EngineScratch &scratch, uint64_t pos) const
{
    scratch.beginRun(t_.elementCount, t_.counters);
    scratch.pos = pos;
}

size_t
NfaEngine::feed(EngineScratch &scratch, const uint8_t *data, size_t len,
                const SimOptions &opts, SimResult &res) const
{
    const uint64_t base = scratch.base;
    const uint64_t t0 = scratch.pos;
    std::vector<uint64_t> &stamp = scratch.stamp;
    std::vector<ElementId> &cur = scratch.cur;
    std::vector<ElementId> &next = scratch.next;

    // Counter state.
    std::vector<uint32_t> &value = scratch.value;
    std::vector<uint64_t> &countStamp = scratch.countStamp;
    std::vector<uint64_t> &resetStamp = scratch.resetStamp;
    std::vector<uint8_t> &latched = scratch.latched;
    std::vector<ElementId> &counted = scratch.counted;
    std::vector<ElementId> &resets = scratch.resets;
    std::vector<ElementId> &latchedList = scratch.latchedList;

    const bool has_resets = !t_.resetTarget.empty();
    const bool has_counters = !t_.counters.empty();

    uint64_t last_report_cycle = scratch.lastReportCycle;
    uint64_t enabled = 0;
    auto emit_report = [&](uint64_t t, ElementId id, uint32_t code) {
        ++res.reportCount;
        if (t != last_report_cycle) {
            last_report_cycle = t;
            ++res.reportingCycles;
        }
        if (opts.recordReports &&
            res.reports.size() < opts.reportRecordLimit) {
            res.reports.push_back({t, id, code});
        }
        if (opts.countByCode)
            ++res.byCode[code];
    };

    size_t i = 0;
    for (; i < len; ++i) {
        // Cycle t is the stream position, so poll points and report
        // offsets are the same under any chunking.
        const uint64_t t = t0 + i;
        if (opts.guard && (t & (kGuardCheckIntervalSymbols - 1)) == 0) {
            Status st = opts.guard->check(t);
            if (!st.ok()) {
                // Partial result: everything recorded so far covers
                // exactly the first t symbols.
                res.guardStatus = std::move(st);
                break;
            }
        }
        std::swap(cur, next);
        next.clear();

        // The active set counts states enabled through edges; states
        // that are always enabled by construction (all-input starts)
        // are excluded, matching VASim's accounting (e.g. Table I
        // reports Snort's active set far below its start-state
        // count).
        if (opts.computeActiveSet)
            enabled += cur.size();

        const uint8_t s = data[i];
        const uint32_t word = s >> 6;
        const uint64_t bit = uint64_t(1) << (s & 63);

        // Process one matched element: report and propagate.
        auto on_match = [&](ElementId id) {
            if (t_.reporting[id])
                emit_report(t, id, t_.reportCode[id]);
            const uint32_t ebeg = t_.edgeBegin[id];
            const uint32_t eend = t_.edgeBegin[id + 1];
            if (!has_counters) {
                for (uint32_t k = ebeg; k < eend; ++k) {
                    const ElementId tgt = t_.edgeTarget[k];
                    // All-input targets are permanently enabled and
                    // handled by the indexed path below.
                    if (!t_.isAllInput[tgt] &&
                        stamp[tgt] != base + t + 2) {
                        stamp[tgt] = base + t + 2;
                        next.push_back(tgt);
                    }
                }
                return;
            }
            for (uint32_t k = ebeg; k < eend; ++k) {
                const ElementId tgt = t_.edgeTarget[k];
                if (!t_.isCounter[tgt]) {
                    if (!t_.isAllInput[tgt] &&
                        stamp[tgt] != base + t + 2) {
                        stamp[tgt] = base + t + 2;
                        next.push_back(tgt);
                    }
                } else if (countStamp[tgt] != base + t + 1) {
                    countStamp[tgt] = base + t + 1;
                    counted.push_back(tgt);
                }
            }
            if (has_resets) {
                for (uint32_t k = t_.resetBegin[id];
                     k < t_.resetBegin[id + 1]; ++k) {
                    const ElementId tgt = t_.resetTarget[k];
                    if (resetStamp[tgt] != base + t + 1) {
                        resetStamp[tgt] = base + t + 1;
                        resets.push_back(tgt);
                    }
                }
            }
        };

        for (auto id : cur) {
            if (t_.label[id][word] & bit)
                on_match(id);
        }
        for (uint32_t k = t_.maiBegin[s]; k < t_.maiBegin[s + 1]; ++k)
            on_match(t_.maiTarget[k]);

        if (!has_counters)
            continue;

        // Counter settle phase: resets first, then counts.
        for (auto c : resets) {
            value[c] = 0;
            if (latched[c]) {
                latched[c] = 0;
                std::erase(latchedList, c);
            }
        }
        resets.clear();
        for (auto c : counted) {
            ++value[c];
            if (value[c] != t_.counterTarget[c])
                continue;
            // Fire.
            if (t_.reporting[c])
                emit_report(t, c, t_.reportCode[c]);
            for (uint32_t k = t_.edgeBegin[c]; k < t_.edgeBegin[c + 1];
                 ++k) {
                const ElementId tgt = t_.edgeTarget[k];
                if (!t_.isAllInput[tgt] && stamp[tgt] != base + t + 2) {
                    stamp[tgt] = base + t + 2;
                    next.push_back(tgt);
                }
            }
            if (t_.counterMode[c] == kExecModeLatch && !latched[c]) {
                latched[c] = 1;
                latchedList.push_back(c);
            } else if (t_.counterMode[c] == kExecModeRollover) {
                value[c] = 0;
            }
        }
        counted.clear();
        // Latched counters keep their successors enabled.
        for (auto c : latchedList) {
            for (uint32_t k = t_.edgeBegin[c]; k < t_.edgeBegin[c + 1];
                 ++k) {
                const ElementId tgt = t_.edgeTarget[k];
                if (!t_.isAllInput[tgt] && stamp[tgt] != base + t + 2) {
                    stamp[tgt] = base + t + 2;
                    next.push_back(tgt);
                }
            }
        }
    }
    scratch.pos = t0 + i;
    scratch.lastReportCycle = last_report_cycle;
    res.symbols += i;
    res.totalEnabled += enabled;
    return i;
}

SimResult
NfaEngine::simulate(const uint8_t *input, size_t len,
                    EngineScratch &scratch, const SimOptions &opts) const
{
    SimResult res;
    begin(scratch);
    feed(scratch, input, len, opts, res);
    end(scratch);
    if (res.truncated())
        obs::noteGuardStop("engine.nfa", res.guardStatus.code());
    noteNfaRun(res, opts.computeActiveSet);
    return res;
}

} // namespace azoo
