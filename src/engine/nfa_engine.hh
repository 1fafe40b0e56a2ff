/**
 * @file
 * NfaEngine: the enabled-set homogeneous-automata interpreter.
 *
 * This is our reimplementation of the VASim simulation semantics the
 * paper uses for all dynamic measurements (active set, report rates,
 * CPU runtime of the "VASim" rows of Table III). Per input symbol it
 * visits every *enabled* STE, tests its character set, and propagates
 * activations, so its runtime is proportional to the active set --
 * exactly the behaviour the paper's CPU discussion assumes.
 */

#ifndef AZOO_ENGINE_NFA_ENGINE_HH
#define AZOO_ENGINE_NFA_ENGINE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "core/automaton.hh"
#include "engine/engine_scratch.hh"
#include "engine/exec_image.hh"
#include "engine/report.hh"

namespace azoo {

/**
 * Interpreter over compiled flat tables (an NfaExecImage).
 *
 * Two ways to build one:
 *
 *  - `NfaEngine(const Automaton &)` compiles the automaton into owned
 *    tables (CSR adjacency, hot-field copies, the per-byte all-input
 *    index). The automaton itself is not referenced after
 *    construction.
 *  - `NfaEngine(const NfaExecImage &)` *adopts* an already-compiled
 *    image — e.g. the `EXEC` section of an mmap-ed `.azoox` artifact
 *    (src/artifact/) — in O(1) with no per-element work or
 *    allocation. The storage behind the image must outlive the
 *    engine.
 *
 * All run state lives in an EngineScratch, driven as a resumable
 * cursor: begin() opens a run at stream position 0, feed() advances
 * it over any number of chunks, end() closes it. This cursor holds
 * the only copy of the per-symbol loop; simulate() is begin + one
 * feed + end, StreamingSession is an engine plus a cursor, and the
 * prefilter replays its windows through one. The engine is never
 * mutated after construction, so one engine may be shared by any
 * number of threads running concurrently as long as each thread uses
 * its own scratch (ParallelRunner's batch mode relies on this).
 */
class NfaEngine
{
  public:
    explicit NfaEngine(const Automaton &a);

    /** Adopt a precompiled execution image (zero-copy; O(1)). */
    explicit NfaEngine(const NfaExecImage &image);

    /** Open a run on @p scratch: stream position 0, start-of-data
     *  states enabled for the first symbol. */
    void begin(EngineScratch &scratch) const;

    /**
     * Advance the run opened on @p scratch over @p len bytes. Reports,
     * reportCount, reportingCycles, byCode, totalEnabled and symbols
     * accumulate into @p result, with offsets counted in stream
     * position. opts.guard is polled every kGuardCheckIntervalSymbols
     * symbols of stream position, so chunking never moves a poll
     * point. Returns the bytes consumed: less than @p len exactly
     * when the guard stopped the run (result.guardStatus then says
     * why). Flushes no metrics; callers account per run or per feed.
     */
    size_t feed(EngineScratch &scratch, const uint8_t *data, size_t len,
                const SimOptions &opts, SimResult &result) const;

    /** Close the run on @p scratch, retiring its stamps so the
     *  scratch can begin() another. */
    void end(EngineScratch &scratch) const { scratch.endRun(); }

    /** Run the automaton over @p input reusing @p scratch (the
     *  allocation-free hot path; see EngineScratch). */
    SimResult simulate(const uint8_t *input, size_t len,
                       EngineScratch &scratch,
                       const SimOptions &opts = SimOptions()) const;

    /** Convenience: run with a private, freshly allocated scratch. */
    SimResult
    simulate(const uint8_t *input, size_t len,
             const SimOptions &opts = SimOptions()) const
    {
        EngineScratch scratch;
        return simulate(input, len, scratch, opts);
    }

    SimResult
    simulate(const std::vector<uint8_t> &input,
             const SimOptions &opts = SimOptions()) const
    {
        return simulate(input.data(), input.size(), opts);
    }

    SimResult
    simulate(const std::vector<uint8_t> &input, EngineScratch &scratch,
             const SimOptions &opts = SimOptions()) const
    {
        return simulate(input.data(), input.size(), scratch, opts);
    }

    /** Heap bytes of the tables this engine owns, excluding the
     *  object itself (0 for a borrowed image, whose storage belongs
     *  to the caller). */
    size_t
    footprintBytes() const
    {
        return owned_ ? owned_->footprintBytes() : 0;
    }

  private:
    /** Owned tables when compiled from an Automaton; null when the
     *  image is borrowed (artifact adoption). */
    std::unique_ptr<NfaExecTables> owned_;
    /** The tables simulate() reads — views into owned_ or into
     *  caller-owned (typically mmap-ed) storage. */
    NfaExecImage t_;
};

} // namespace azoo

#endif // AZOO_ENGINE_NFA_ENGINE_HH
