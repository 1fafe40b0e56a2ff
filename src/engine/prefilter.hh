/**
 * @file
 * Literal prefiltering: scan the input for mandatory literal factors
 * and run the full automaton only inside bounded windows around the
 * candidates.
 *
 * This is the Hyperscan/Snort decomposition applied to the suite's
 * literal-chain components (analysis::ComponentClass::kLiteralChain):
 * every accepting match of such a component must contain its
 * mandatory literal factor as a contiguous byte substring
 * (analysis/profile.hh), so a multi-pattern literal scan is a sound
 * *necessary condition* — input regions with no candidate occurrence
 * cannot contain a match and are skipped entirely. DPI-class rule
 * sets (ClamAV, YARA) are literal-dominated, so on benign traffic the
 * scanner touches every byte once at memchr-class speed and the
 * interpreter almost never runs.
 *
 * Two scanner strategies, picked at construction:
 *
 *  - a single literal uses a first-byte sweep (`findByte`: SSE2
 *    compare/movemask when available, an SWAR zero-in-word test as
 *    the portable fallback) plus a memcmp verify;
 *  - multiple literals use a Wu-Manber bad-gram shift table over
 *    2-byte grams, which on random input advances close to
 *    min-pattern-length bytes per probe.
 *
 * Exactness: PrefilteredNfa replays the sub-automaton inside a window
 * of global left reach `maxRadius` (>= the longest bounded match
 * length of any covered component, so the rewind covers any match
 * overlapping the candidate) and per-pattern right reach around each
 * candidate end; overlapping or adjacent windows are coalesced into
 * one engagement so interpreter state is continuous across them. The
 * covered components are counter-free, all-input-start, and bounded,
 * so simulation from a fresh enabled set at the window start is
 * exact: reports (element, offset, code) equal the unfiltered
 * engine's over the same input. The replay is not a loop of its own:
 * PrefilteredNfa holds an NfaEngine over the group, each engagement
 * is a cursor on it (NfaEngine::begin at the window start, feed as
 * bytes arrive, end when the window closes), and report ids and
 * offsets are mapped through toGlobal and the window start. Guard
 * handling preserves the serial poll contract: run() polls
 * SimOptions-style RunGuards every kGuardCheckIntervalSymbols
 * consumed symbols — *including across skipped regions* — and
 * truncates at the same poll points the unfiltered engine would.
 */

#ifndef AZOO_ENGINE_PREFILTER_HH
#define AZOO_ENGINE_PREFILTER_HH

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/automaton.hh"
#include "engine/engine_scratch.hh"
#include "engine/nfa_engine.hh"
#include "engine/report.hh"
#include "util/status.hh"

namespace azoo {

class RunGuard;

/** One literal the scanner sweeps for, with the window the full
 *  engine replays around each occurrence. */
struct PrefilterPattern {
    /** Scan literal (a prefix of the component's mandatory factor;
     *  at least 2 bytes). */
    std::string literal;
    /** Window reach in bytes on either side of an occurrence end
     *  (>= the component's maxMatchLen, so any match containing the
     *  occurrence lies inside the window). */
    uint32_t radius = 0;
};

/** Prefilter effectiveness counters for one run / session. */
struct PrefilterStats {
    uint64_t candidates = 0;   ///< literal occurrences found
    uint64_t windowBytes = 0;  ///< bytes the interpreter actually ran
    uint64_t skippedBytes = 0; ///< bytes only the scanner touched
};

/**
 * Multi-literal scanner. Finds every occurrence of every pattern that
 * is fully contained in the buffer, reporting (end offset, pattern
 * index) pairs. Patterns must be at least 2 bytes (the planner
 * enforces a larger minimum before building one of these).
 */
class LiteralScanner
{
  public:
    explicit LiteralScanner(std::vector<std::string> patterns);

    size_t minLen() const { return minLen_; }
    size_t maxLen() const { return maxLen_; }
    size_t patternCount() const { return pats_.size(); }

    /**
     * Report every occurrence fully contained in [0, len) whose end
     * offset is >= @p from, as sink(end, patternIndex). Starts may
     * precede @p from (that is the stream-boundary back-read), so
     * callers re-scanning a growing buffer pass the old length as
     * @p from and never miss or duplicate a straddling occurrence.
     * Emission order is unspecified; callers sort.
     */
    template <typename Sink>
    void
    scan(const uint8_t *buf, size_t len, size_t from, Sink &&sink) const
    {
        if (len < minLen_)
            return;
        if (pats_.size() == 1) {
            scanSingle(buf, len, from, sink);
            return;
        }
        const size_t m = minLen_;
        // First start worth considering: an occurrence ending at
        // >= from starts at >= from + 1 - maxLen_. The probe index
        // is the end of the first m bytes of a candidate.
        size_t pos = m - 1;
        if (from + m > maxLen_)
            pos = std::max(pos, from + m - maxLen_);
        while (pos < len) {
            const uint32_t h = gram(buf[pos - 1], buf[pos]);
            const uint16_t sh = shift_[h];
            if (sh != 0) {
                pos += sh;
                continue;
            }
            for (int32_t pi = bucketHead_[h]; pi >= 0;
                 pi = bucketNext_[static_cast<size_t>(pi)]) {
                const std::string &p =
                    pats_[static_cast<size_t>(pi)];
                const size_t start = pos + 1 - m;
                if (start + p.size() > len)
                    continue;
                if (std::memcmp(buf + start, p.data(), p.size()) != 0)
                    continue;
                const size_t end = start + p.size() - 1;
                if (end >= from)
                    sink(end, static_cast<uint32_t>(pi));
            }
            ++pos;
        }
    }

  private:
    static uint32_t
    gram(uint8_t a, uint8_t b)
    {
        return (static_cast<uint32_t>(a) << 8) | b;
    }

    /** First occurrence of @p b in [p, end), or nullptr. SSE2 when
     *  available, SWAR zero-in-word otherwise (prefilter.cc). */
    static const uint8_t *findByte(const uint8_t *p, const uint8_t *end,
                                   uint8_t b);

    template <typename Sink>
    void
    scanSingle(const uint8_t *buf, size_t len, size_t from,
               Sink &&sink) const
    {
        const std::string &p = pats_[0];
        size_t cursor = 0;
        if (from + 1 > p.size())
            cursor = from + 1 - p.size();
        while (cursor + p.size() <= len) {
            const uint8_t *hit =
                findByte(buf + cursor, buf + len - (p.size() - 1),
                         static_cast<uint8_t>(p[0]));
            if (!hit)
                return;
            const size_t start = static_cast<size_t>(hit - buf);
            if (std::memcmp(buf + start, p.data(), p.size()) == 0) {
                const size_t end = start + p.size() - 1;
                if (end >= from)
                    sink(end, 0u);
            }
            cursor = start + 1;
        }
    }

  public:
    /** Resident bytes of the scanner tables (the Wu-Manber shift and
     *  bucket arrays are 64 Ki entries each when built). */
    size_t
    footprintBytes() const
    {
        size_t n = 0;
        for (const std::string &p : pats_)
            n += sizeof(std::string) + p.capacity();
        n += shift_.capacity() * sizeof(uint16_t);
        n += (bucketHead_.capacity() + bucketNext_.capacity()) *
            sizeof(int32_t);
        return n;
    }

  private:
    std::vector<std::string> pats_;
    size_t minLen_ = 0;
    size_t maxLen_ = 0;
    /** Wu-Manber shift per 2-gram; 0 means "probe the bucket". Only
     *  built for multi-pattern scanners. */
    std::vector<uint16_t> shift_;
    /** Head of the pattern chain per terminal gram (-1 = empty). */
    std::vector<int32_t> bucketHead_;
    /** Next pattern in the same bucket (-1 = end). */
    std::vector<int32_t> bucketNext_;
};

/**
 * Windowed executor for a group of literal-chain components.
 *
 * The sub-automaton must be counter-free, with no start-of-data
 * elements (all starts all-input) — the planner guarantees this, the
 * constructor panics otherwise. One PrefilterPattern per covered
 * component; report element ids are remapped through @p toGlobal so
 * output refers to the original automaton.
 *
 * Not copyable: sessions and window cursors refer back to it.
 */
class PrefilteredNfa
{
  public:
    PrefilteredNfa(const Automaton &sub, std::vector<ElementId> toGlobal,
                   std::vector<PrefilterPattern> patterns);
    PrefilteredNfa(const PrefilteredNfa &) = delete;
    PrefilteredNfa &operator=(const PrefilteredNfa &) = delete;

    /** Outcome of one block-mode run. Reports carry global element
     *  ids and absolute offsets, in emission (ascending-offset)
     *  order. */
    struct RunResult {
        uint64_t symbols = 0; ///< consumed prefix (== len unless guarded)
        Status guardStatus;
        std::vector<Report> reports;
        uint64_t totalEnabled = 0;
        PrefilterStats stats;
    };

    /**
     * Scan + windowed simulation over one monolithic input. Polls
     * @p guard (may be null) every kGuardCheckIntervalSymbols symbols
     * of input position — skipped bytes still advance the poll clock —
     * and on a stop yields the consumed-prefix result exactly like
     * the unfiltered engine.
     */
    RunResult run(const uint8_t *input, size_t len, const RunGuard *guard,
                  EngineScratch &scratch) const;

    size_t patternCount() const { return scanner_.patternCount(); }
    uint32_t maxRadius() const { return maxRadius_; }

    /** Resident bytes of the shared tables (exec tables + scanner);
     *  per-session state is Session::footprintBytes(). */
    size_t footprintBytes() const;

  private:
    /** Mutable engagement state threaded through run()/Session: the
     *  current window's NfaEngine cursor (if any) and accumulated
     *  outputs. */
    struct Exec {
        EngineScratch *scratch = nullptr; ///< the window cursor
        bool active = false;      ///< a window run is open
        uint64_t runStart = 0;    ///< absolute offset of cycle 0
        uint64_t windowEnd = 0;   ///< current window's right edge
        /** Reports (global ids, absolute offsets) and totalEnabled;
         *  the other SimResult fields are not read. */
        SimResult out;
        PrefilterStats stats;

        /** Bytes simulated so far (absolute; valid while active). */
        uint64_t fedEnd() const { return runStart + scratch->pos; }
    };

  public:
    /**
     * Streaming mode: feed() arbitrary chunks; candidates straddling
     * chunk boundaries are found by re-scanning a bounded tail of a
     * rolling buffer. Guard-free by design — the planner's streaming
     * session owns the poll clock and slices its feeds accordingly.
     */
    class Session
    {
      public:
        explicit Session(const PrefilteredNfa &pf);

        /** Consume a chunk (always fully; never fails). */
        void feed(const uint8_t *data, size_t len);

        /** Accumulated reports (global ids, absolute offsets). */
        const std::vector<Report> &reports() const
        {
            return x_.out.reports;
        }
        uint64_t totalEnabled() const { return x_.out.totalEnabled; }
        const PrefilterStats &stats() const { return x_.stats; }
        uint64_t offset() const { return pos_; }

        /** Back to start-of-stream; results cleared. */
        void reset();

        /** Resident bytes of this session's own state (scratch,
         *  rolling buffer, hit list, report storage). */
        size_t
        footprintBytes() const
        {
            return sizeof(*this) + scratch_.footprintBytes() +
                buf_.capacity() +
                hits_.capacity() *
                sizeof(std::pair<uint64_t, uint32_t>) +
                x_.out.reports.capacity() * sizeof(Report);
        }

      private:
        const PrefilteredNfa &pf_;
        EngineScratch scratch_;
        PrefilteredNfa::Exec x_;
        /** Rolling window of recent stream bytes; buf_[i] is absolute
         *  offset bufBase_ + i. */
        std::vector<uint8_t> buf_;
        uint64_t bufBase_ = 0;
        uint64_t pos_ = 0;
        std::vector<std::pair<uint64_t, uint32_t>> hits_;
        /** obs flush watermarks (deltas are flushed per feed). */
        uint64_t flushedCandidates_ = 0;
        uint64_t flushedWindowBytes_ = 0;
        uint64_t flushedSkipped_ = 0;
    };

  private:
    void openRun(Exec &x, uint64_t lo) const;
    void closeRun(Exec &x) const;
    /** Feed the window cursor absolute positions [x.fedEnd(),
     *  target); bytes[i] is absolute offset bytesBase + i. */
    void feedTo(Exec &x, uint64_t target, const uint8_t *bytes,
                uint64_t bytesBase) const;
    /** Engage/extend the window for a candidate ending at @p e.
     *  Hits must arrive in ascending @p e order; @p avail caps how
     *  far feeding may proceed (bytes beyond it are not readable
     *  yet). */
    void applyHit(Exec &x, uint64_t e, uint32_t pat, uint64_t avail,
                  const uint8_t *bytes, uint64_t bytesBase) const;

    /** The group's interpreter; windows are cursors over it. */
    NfaEngine engine_;
    std::vector<ElementId> toGlobal_;
    LiteralScanner scanner_;
    /** Per-pattern right reach; the left reach is always maxRadius_
     *  (a per-pattern left reach would make window starts
     *  non-monotone in hit order, and a premature window close could
     *  then leave a coverage hole). */
    std::vector<uint32_t> radius_;
    uint32_t maxRadius_ = 0;
};

/** Flush prefilter effectiveness deltas to the obs registry
 *  (prefilter.candidates / prefilter.bytes_skipped /
 *  prefilter.window_bytes); no-op when obs is compiled out. */
void notePrefilter(uint64_t candidates, uint64_t windowBytes,
                   uint64_t skippedBytes);

} // namespace azoo

#endif // AZOO_ENGINE_PREFILTER_HH
