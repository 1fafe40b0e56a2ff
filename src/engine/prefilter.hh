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
 * Exactness: PrefilteredNfa replays its group of components inside a
 * window of global left reach `maxRadius` (>= the longest bounded
 * match length of any covered component, so the rewind covers any
 * match overlapping the candidate) and per-pattern right reach around
 * each candidate end; overlapping or adjacent windows are coalesced
 * into one engagement so interpreter state is continuous across them.
 * The covered components are counter-free, all-input-start, and
 * bounded, so simulation from a fresh enabled set at the window start
 * is exact: reports (element, offset, code) equal the unfiltered
 * engine's over the same input. The replay is not a loop of its own:
 * PrefilteredNfa holds an NfaEngine over the group's members, each
 * engagement is a cursor on it (NfaEngine::begin at the window start,
 * feed as bytes arrive, end when the window closes), and report ids
 * and offsets are mapped through the member list and the window
 * start. Windows run only inside a PrefilteredNfa::Session, block
 * runs included (a block is a one-chunk stream), and the session is
 * guard-free: the planner's session owns the poll clock and slices
 * its feeds at the serial poll points, skipped regions included.
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
 * The group is @p members of the automaton, compiled in place
 * (NfaEngine(a, members)); it must be counter-free, with no
 * start-of-data elements (all starts all-input) — the planner
 * guarantees this, the constructor panics otherwise. One
 * PrefilterPattern per covered component; the group's report element
 * ids are mapped back through @p members, so output refers to the
 * automaton's own ids.
 *
 * Not copyable: sessions and window cursors refer back to it.
 */
class PrefilteredNfa
{
  public:
    PrefilteredNfa(const Automaton &a, std::vector<ElementId> members,
                   std::vector<PrefilterPattern> patterns);
    PrefilteredNfa(const PrefilteredNfa &) = delete;
    PrefilteredNfa &operator=(const PrefilteredNfa &) = delete;

    size_t patternCount() const { return scanner_.patternCount(); }
    uint32_t maxRadius() const { return maxRadius_; }

    /** Stream bytes a Session keeps behind its position: maxRadius()
     *  plus the longest scan literal (see Session::feed). */
    uint64_t keepBytes() const { return maxRadius_ + scanner_.maxLen(); }

    /** Resident bytes of the shared tables (exec tables + scanner);
     *  per-session state is Session::footprintBytes(). */
    size_t footprintBytes() const;

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

        /** Consume a chunk (always fully; never fails). A chunk
         *  longer than kPieceBytes is taken in pieces of that size,
         *  so the rolling buffer stays bounded on a block. */
        void feed(const uint8_t *data, size_t len);

        static constexpr size_t kPieceBytes = 64 * 1024;

        /** Accumulated reports (global ids, absolute offsets), in
         *  offset order: windows replay left to right. */
        const std::vector<Report> &reports() const
        {
            return out_.reports;
        }

        /** The low-water mark: no later feed reports below it, as a
         *  window never replays from more than maxRadius() behind
         *  the position. It trails offset() by at most keepBytes(). */
        uint64_t
        lowWater() const
        {
            return pos_ - std::min<uint64_t>(pos_, pf_.maxRadius());
        }

        /** Move the reports below @p offset to the end of @p out. */
        void takeReports(uint64_t offset, std::vector<Report> &out);

        uint64_t totalEnabled() const { return out_.totalEnabled; }
        const PrefilterStats &stats() const { return stats_; }
        uint64_t offset() const { return pos_; }

        /** Flush the stats gathered since the last call to the
         *  metrics (notePrefilter()); once per caller's feed, not per
         *  guard slice. */
        void noteStats();

        /** Back to start-of-stream; results cleared. */
        void reset();

        /** Rolling-buffer size past which feed() compacts it back to
         *  @p keep bytes (keepBytes()): the window's resident bound
         *  between feeds. */
        static size_t
        bufferBound(uint64_t keep)
        {
            return static_cast<size_t>(4 * keep + 4096);
        }

        /** Resident bytes of this session's own state (scratch,
         *  rolling buffer, hit list, report storage). */
        size_t
        footprintBytes() const
        {
            return sizeof(*this) + scratch_.footprintBytes() +
                buf_.capacity() +
                hits_.capacity() *
                sizeof(std::pair<uint64_t, uint32_t>) +
                out_.reports.capacity() * sizeof(Report);
        }

      private:
        void feedPiece(const uint8_t *data, size_t len);
        /** Open a window run at absolute offset @p lo. */
        void openRun(uint64_t lo);
        void closeRun();
        /** Bytes simulated so far (absolute; valid while active_). */
        uint64_t fedEnd() const { return runStart_ + scratch_.pos; }
        /** Feed the window cursor absolute positions [fedEnd(),
         *  target); bytes[i] is absolute offset bytesBase + i. */
        void feedTo(uint64_t target, const uint8_t *bytes,
                    uint64_t bytesBase);
        /** Engage/extend the window for a candidate ending at @p e.
         *  Hits must arrive in ascending @p e order; @p avail caps
         *  how far feeding may proceed (bytes beyond it are not
         *  readable yet). */
        void applyHit(uint64_t e, uint32_t pat, uint64_t avail,
                      const uint8_t *bytes, uint64_t bytesBase);

        const PrefilteredNfa &pf_;
        /** The current window's NfaEngine cursor. */
        EngineScratch scratch_;
        bool active_ = false;    ///< a window run is open
        uint64_t runStart_ = 0;  ///< absolute offset of cycle 0
        uint64_t windowEnd_ = 0; ///< current window's right edge
        /** Reports (automaton ids, absolute offsets) and
         *  totalEnabled; the other SimResult fields are not read. */
        SimResult out_;
        PrefilterStats stats_;
        /** Rolling window of recent stream bytes; buf_[i] is absolute
         *  offset bufBase_ + i. */
        std::vector<uint8_t> buf_;
        uint64_t bufBase_ = 0;
        uint64_t pos_ = 0;
        std::vector<std::pair<uint64_t, uint32_t>> hits_;
        /** obs flush watermarks (deltas are flushed by noteStats()). */
        uint64_t flushedCandidates_ = 0;
        uint64_t flushedWindowBytes_ = 0;
        uint64_t flushedSkipped_ = 0;
    };

  private:
    /** The group's interpreter; windows are cursors over it. */
    NfaEngine engine_;
    /** The group's members: group id -> automaton id. */
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
