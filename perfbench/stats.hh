/**
 * @file
 * Arithmetic the benchmark reports with: order statistics, the
 * geometric mean, report digests, and in-memory spans with their
 * self times. Header-only and free of engine dependencies so the
 * self-test checks exactly the code the benchmark runs.
 */

#ifndef AZOO_PERFBENCH_STATS_HH
#define AZOO_PERFBENCH_STATS_HH

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/** Median; the mean of the two middle samples for an even count, 0
 *  for no samples. */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** The quantile a tail percentile may claim over @p n samples: the
 *  highest one with at least ten samples beyond it, capped at
 *  @p cap. 0 when fewer than eleven samples leave no such quantile. */
inline double
tailQuantile(size_t n, double cap = 0.99)
{
    if (n < 11)
        return 0;
    // Rank r (1-based) has n - r samples beyond it; r <= n - 10.
    const double q = static_cast<double>(n - 10) / static_cast<double>(n);
    return std::min(cap, q);
}

/** Nearest-rank quantile: the smallest sample with at least q * n
 *  samples at or below it. */
inline double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(q * static_cast<double>(v.size()) - 1e-9);
    const size_t r = static_cast<size_t>(std::max(1.0, rank));
    return v[std::min(r, v.size()) - 1];
}

/** A tail percentile under the ten-samples-beyond rule, or the
 *  maximum when the sample is too small for any. */
struct Tail {
    double q = 0;     ///< quantile reported (0: the maximum stands in)
    double value = 0;
};

inline Tail
tail(const std::vector<double> &v, double cap = 0.99)
{
    const double q = tailQuantile(v.size(), cap);
    if (q == 0)
        return {0, v.empty() ? 0 : *std::max_element(v.begin(), v.end())};
    return {q, quantile(v, q)};
}

/** Geometric mean of positive values; 0 if any is not positive. */
inline double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0;
    double logSum = 0;
    for (double x : v) {
        if (!(x > 0))
            return 0;
        logSum += std::log(x);
    }
    return std::exp(logSum / static_cast<double>(v.size()));
}

/** FNV-1a over (offset, element, code) records: the digest a result
 *  is compared by. Callers pass canonical (sorted) reports. */
template <typename ReportVec>
uint64_t
reportDigest(const ReportVec &reports, size_t limit = ~size_t(0))
{
    uint64_t h = 1469598103934665603ull;
    auto mix = [&](uint64_t x) {
        for (int i = 0; i < 8; ++i) {
            h ^= (x >> (8 * i)) & 0xFF;
            h *= 1099511628211ull;
        }
    };
    const size_t n = std::min(limit, reports.size());
    for (size_t i = 0; i < n; ++i) {
        mix(reports[i].offset);
        mix(reports[i].element);
        mix(reports[i].code);
    }
    return h;
}

using Clock = std::chrono::steady_clock;

inline uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
}

/**
 * On-CPU time of the calling thread. Unlike a wall clock it does not
 * advance while the thread waits for a CPU, whether behind another
 * thread or while the hypervisor runs another tenant on the vCPU
 * (steal time, which the kernel leaves out of task time).
 */
inline uint64_t
threadCpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
        static_cast<uint64_t>(ts.tv_nsec);
}

/** One timed call: name, interval, causing span and request. */
struct Span {
    std::string name;
    uint64_t startNs = 0;
    uint64_t endNs = 0;
    int64_t parent = -1; ///< index in the same Tracer, -1 for a root
    uint64_t request = 0;

    uint64_t dur() const { return endNs - startNs; }
};

/**
 * Per-thread span store. Disabled tracers record nothing and read no
 * clock, so the untraced run pays only a branch per call site.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled = false) : enabled_(enabled) {}

    /** Open a span; returns its index, or -1 when disabled. */
    int64_t
    open(std::string name, int64_t parent, uint64_t request)
    {
        if (!enabled_)
            return -1;
        spans_.push_back({std::move(name), nowNs(), 0, parent, request});
        return static_cast<int64_t>(spans_.size() - 1);
    }

    void
    close(int64_t id)
    {
        if (id >= 0)
            spans_[static_cast<size_t>(id)].endNs = nowNs();
    }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    bool enabled_;
    std::vector<Span> spans_;
};

/** RAII span: opened at construction, closed at scope end. */
class Scoped
{
  public:
    Scoped(Tracer &t, std::string name, int64_t parent, uint64_t request)
        : t_(t), id_(t.open(std::move(name), parent, request))
    {
    }
    Scoped(const Scoped &) = delete;
    Scoped &operator=(const Scoped &) = delete;
    ~Scoped() { t_.close(id_); }

    int64_t id() const { return id_; }

  private:
    Tracer &t_;
    int64_t id_;
};

/**
 * Self time of every span: its duration minus the part of its
 * interval that its children cover (overlapping children count once,
 * and a child's time outside its parent does not count).
 */
inline std::vector<uint64_t>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<uint64_t, uint64_t>>> kids(
        spans.size());
    for (const Span &s : spans)
        if (s.parent >= 0)
            kids[static_cast<size_t>(s.parent)].push_back(
                {s.startNs, s.endNs});
    std::vector<uint64_t> self(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &p = spans[i];
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        uint64_t covered = 0, curLo = 0, curHi = 0;
        bool open = false;
        for (auto [lo, hi] : iv) {
            lo = std::max(lo, p.startNs);
            hi = std::min(hi, p.endNs);
            if (hi <= lo)
                continue;
            if (open && lo <= curHi) {
                curHi = std::max(curHi, hi);
                continue;
            }
            if (open)
                covered += curHi - curLo;
            curLo = lo;
            curHi = hi;
            open = true;
        }
        if (open)
            covered += curHi - curLo;
        self[i] = p.dur() - covered;
    }
    return self;
}

/**
 * Per request whose root span is named @p rootName: the summed self
 * times of its non-root spans divided by the root's duration. Near 1
 * when the layer spans cover the request; well below 1 when a layer
 * is missing a span.
 */
inline std::vector<double>
layerSumRatios(const std::vector<Span> &spans, const std::string &rootName)
{
    const std::vector<uint64_t> self = selfTimes(spans);
    std::vector<double> out;
    std::vector<int64_t> rootOf(spans.size(), -1);
    std::vector<uint64_t> layerSum(spans.size(), 0);
    for (size_t i = 0; i < spans.size(); ++i) {
        int64_t r = static_cast<int64_t>(i);
        while (spans[static_cast<size_t>(r)].parent >= 0)
            r = spans[static_cast<size_t>(r)].parent;
        rootOf[i] = r;
        if (r != static_cast<int64_t>(i))
            layerSum[static_cast<size_t>(r)] += self[i];
    }
    for (size_t i = 0; i < spans.size(); ++i)
        if (spans[i].parent < 0 && spans[i].name == rootName &&
            spans[i].dur() > 0)
            out.push_back(static_cast<double>(layerSum[i]) /
                          static_cast<double>(spans[i].dur()));
    return out;
}

} // namespace perfbench

#endif // AZOO_PERFBENCH_STATS_HH
