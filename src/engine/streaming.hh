/**
 * @file
 * StreamingSession: chunked simulation with persistent automaton
 * state.
 *
 * Real deployments of the paper's applications (intrusion detection,
 * virus scanning) process unbounded streams in buffers; matches may
 * straddle buffer boundaries. A StreamingSession is an NfaEngine plus
 * one open cursor (an EngineScratch between NfaEngine::begin() and
 * end()): the enabled set, counter values and stream offset stay
 * alive across feed() calls, and each feed() is one NfaEngine::feed().
 * Feeding one byte at a time, or any chunking, therefore produces
 * exactly the results of a single monolithic simulate() call (a
 * property the test suite checks).
 *
 * Sessions honour SimOptions::guard exactly like the monolithic
 * engines: the guard is polled every kGuardCheckIntervalSymbols
 * symbols of *stream* position (so chunking does not change poll
 * points), feed() returns how many bytes it consumed, and once the
 * guard fires the session is stopped — results() covers exactly the
 * consumed prefix, guardStatus says why, and further feed() calls
 * consume nothing until reset().
 */

#ifndef AZOO_ENGINE_STREAMING_HH
#define AZOO_ENGINE_STREAMING_HH

#include <cstdint>
#include <vector>

#include "core/automaton.hh"
#include "engine/engine_scratch.hh"
#include "engine/nfa_engine.hh"
#include "engine/report.hh"

namespace azoo {

/** Incremental homogeneous-automata simulation. */
class StreamingSession
{
  public:
    /** Compiles @p a; the automaton need not outlive the session. */
    explicit StreamingSession(const Automaton &a);

    /**
     * Process a chunk; reports accumulate in results(). Returns the
     * number of bytes consumed: less than @p len exactly when
     * options.guard stopped the session mid-chunk (results() then
     * carries the non-OK guardStatus and covers exactly the consumed
     * prefix; chunk loops stop on a short return).
     */
    size_t feed(const uint8_t *data, size_t len);

    size_t
    feed(const std::vector<uint8_t> &data)
    {
        return feed(data.data(), data.size());
    }

    /** True once options.guard has stopped this session (cleared by
     *  reset()). */
    bool stopped() const { return !result_.guardStatus.ok(); }

    /** Results so far (offsets are absolute stream offsets). */
    const SimResult &results() const { return result_; }

    /** Total symbols consumed. */
    uint64_t offset() const { return scratch_.pos; }

    /** Reset to the start-of-stream state (results cleared). */
    void reset();

    /** Resident bytes: exec tables + scratch + report storage.
     *  The serve layer's admission estimate is validated against
     *  this. */
    size_t footprintBytes() const;

    /** Simulation options (reports are always recorded unless
     *  changed here before feeding). */
    SimOptions options;

  private:
    NfaEngine engine_;
    /** The open cursor: begun at construction and by reset(). */
    EngineScratch scratch_;
    SimResult result_;
};

} // namespace azoo

#endif // AZOO_ENGINE_STREAMING_HH
