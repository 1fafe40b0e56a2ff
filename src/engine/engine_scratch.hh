/**
 * @file
 * EngineScratch: the mutable cursor state of the enabled-set
 * interpreter.
 *
 * NfaEngine's tables are immutable; everything a run mutates lives
 * here: the enabled set, counter values, latch bits, the stream
 * position and the last reporting cycle. A run is opened with
 * NfaEngine::begin(), advanced by any number of NfaEngine::feed()
 * calls and closed with NfaEngine::end(); simulate() is one feed
 * between the two. Block runs, PlannedSession's interpreter cursor
 * and the prefilter's window replay are all such cursors over an
 * NfaEngine.
 *
 * Reusing a scratch avoids rebuilding five O(n) vectors (stamp,
 * counter values, count/reset stamps, latch bits) per run, which
 * would dominate short-input calls. Between runs the stamp arrays are
 * *not* cleared — instead each run stamps with values offset by a
 * monotonically increasing epoch (`base`), so a fresh run can never
 * observe a stale stamp and re-zeroing is unnecessary. Only the
 * (few) counter values and latch bits are reset, by id list.
 *
 * Ownership rule: a scratch may be used by one run at a time. It may
 * be reused across different engines as long as the automata have
 * the same element count (otherwise it transparently reinitializes).
 * Every PlannedSession (ParallelRunner's worker slots and chunked
 * streams, served sessions) owns its interpreter cursor's scratch,
 * and PrefilteredNfa::Session owns one for its windows.
 */

#ifndef AZOO_ENGINE_ENGINE_SCRATCH_HH
#define AZOO_ENGINE_ENGINE_SCRATCH_HH

#include <cstdint>
#include <span>
#include <vector>

#include "core/automaton.hh"

namespace azoo {

/** Reusable interpreter state; see file comment for the epoch trick. */
struct EngineScratch {
    /** Enable stamps: stamp[i] == base + t + 2 means element i is
     *  enabled for cycle t+1 of the current run. */
    std::vector<uint64_t> stamp;
    /** Enabled-set worklists (swapped every cycle). */
    std::vector<ElementId> cur, next;

    // Counter state.
    std::vector<uint32_t> value;
    std::vector<uint64_t> countStamp, resetStamp;
    std::vector<uint8_t> latched;
    std::vector<ElementId> counted, resets, latchedList;

    /** Stamp epoch of the current/next run; advanced by each run so
     *  stamps from prior runs can never collide. */
    uint64_t base = 0;
    /** Symbols fed since the run began (the stream position). */
    uint64_t pos = 0;
    /** Cycle of the most recent report (~0 before the first), so
     *  reportingCycles counts across feed boundaries. */
    uint64_t lastReportCycle = ~uint64_t(0);

    /**
     * Make the scratch ready for a fresh run over @p n elements whose
     * counters are @p counters. O(counters + worklists) when the size
     * matches a previous run; O(n) (re)allocation otherwise.
     */
    void
    beginRun(size_t n, std::span<const ElementId> counters)
    {
        if (stamp.size() != n) {
            stamp.assign(n, 0);
            value.assign(n, 0);
            countStamp.assign(n, 0);
            resetStamp.assign(n, 0);
            latched.assign(n, 0);
            base = 0;
        } else {
            for (ElementId c : counters) {
                value[c] = 0;
                latched[c] = 0;
            }
        }
        cur.clear();
        next.clear();
        counted.clear();
        resets.clear();
        latchedList.clear();
        pos = 0;
        lastReportCycle = ~uint64_t(0);
    }

    /** Enable @p id for the next symbol of the open run (after
     *  NfaEngine::begin() or resume(), before the next feed). */
    void
    enable(ElementId id)
    {
        stamp[id] = base + pos + 1;
        next.push_back(id);
    }

    /** Retire the run: advance the epoch past every stamp value it
     *  could have written (base + pos + 1). */
    void
    endRun()
    {
        base += pos + 2;
    }

    /** Bytes of the per-element arrays (stamps, counter values, latch
     *  bits) a run over @p n elements allocates: the part of
     *  footprintBytes() the automaton's size fixes. The worklists hold
     *  the active set and are not counted. */
    static size_t
    elementBytes(size_t n)
    {
        return n * (3 * sizeof(uint64_t) + sizeof(uint32_t) + 1);
    }

    /** Resident bytes of the owned vectors (capacities, not sizes —
     *  the admission footprint cares what the allocator holds). */
    size_t
    footprintBytes() const
    {
        return stamp.capacity() * sizeof(uint64_t) +
            (cur.capacity() + next.capacity()) * sizeof(ElementId) +
            value.capacity() * sizeof(uint32_t) +
            (countStamp.capacity() + resetStamp.capacity()) *
            sizeof(uint64_t) +
            latched.capacity() +
            (counted.capacity() + resets.capacity() +
             latchedList.capacity()) * sizeof(ElementId);
    }
};

} // namespace azoo

#endif // AZOO_ENGINE_ENGINE_SCRATCH_HH
