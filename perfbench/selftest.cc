/**
 * @file
 * Self-test of the benchmark's own arithmetic: the tail-percentile
 * rule, the geometric mean, report digests, span self times and the
 * on-CPU clock the scan samples use.
 * Exits nonzero on the first failed check. run.py --selftest runs it
 * before the per-workload smoke runs.
 */

#include <cmath>
#include <cstdlib>
#include <iostream>
#include <thread>
#include <vector>

#include "perfbench/stats.hh"

using namespace perfbench;

namespace {

int failures = 0;

void
check(bool ok, const char *what)
{
    if (!ok) {
        std::cerr << "selftest FAILED: " << what << "\n";
        ++failures;
    }
}

bool
near(double a, double b)
{
    return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

Span
span(const char *name, uint64_t lo, uint64_t hi, int64_t parent,
     uint64_t req = 1)
{
    return {name, lo, hi, parent, req};
}

struct Rec {
    uint64_t offset;
    uint32_t element;
    uint32_t code;
};

} // namespace

int
main()
{
    // Percentile rule: the highest percentile with >= 10 samples
    // beyond it, capped at p99.
    check(tailQuantile(10) == 0, "10 samples support no tail percentile");
    check(near(tailQuantile(11), 1.0 / 11), "11 samples: rank 1");
    check(near(tailQuantile(100), 0.90), "100 samples -> p90");
    check(near(tailQuantile(500), 0.98), "500 samples -> p98");
    check(near(tailQuantile(1000), 0.99), "1000 samples -> p99");
    check(near(tailQuantile(5000), 0.99), "p99 cap");
    std::vector<double> v;
    for (int i = 1; i <= 1000; ++i)
        v.push_back(i);
    Tail t = tail(v);
    check(near(t.q, 0.99) && t.value == 990, "p99 of 1..1000 is 990");
    size_t beyond = 0;
    for (double x : v)
        beyond += x > t.value;
    check(beyond == 10, "exactly ten samples beyond p99 of 1..1000");
    v.resize(200);
    t = tail(v);
    check(near(t.q, 0.95) && t.value == 190, "p95 of 1..200 is 190");
    check(tail({1, 2, 3}).q == 0 && tail({1, 2, 3}).value == 3,
          "small samples fall back to the maximum");
    check(quantile({5, 1, 3}, 0.5) == 3, "nearest-rank median");
    check(median({4, 1, 3, 2}) == 2.5, "even-count median");
    check(median({}) == 0, "empty median");

    // Geometric mean.
    check(near(geomean({2, 8}), 4), "geomean(2, 8) = 4");
    check(near(geomean({1, 10, 100}), 10), "geomean(1, 10, 100) = 10");
    check(geomean({3, 0}) == 0, "geomean with a zero is 0");
    check(geomean({}) == 0, "geomean of nothing is 0");

    // Digests: order- and prefix-sensitive.
    const std::vector<Rec> a = {{1, 2, 3}, {4, 5, 6}};
    const std::vector<Rec> b = {{4, 5, 6}, {1, 2, 3}};
    check(reportDigest(a) != reportDigest(b), "digest sees order");
    check(reportDigest(a, 1) == reportDigest(std::vector<Rec>{{1, 2, 3}}),
          "digest limit takes a prefix");

    // Self time: duration minus the union of children clipped to the
    // parent.
    std::vector<Span> s = {
        span("root", 0, 100, -1),
        span("a", 10, 30, 0),
        span("b", 20, 50, 0),   // overlaps a: union [10, 50)
        span("c", 90, 120, 0),  // clipped to [90, 100)
        span("a.child", 12, 18, 1),
    };
    std::vector<uint64_t> self = selfTimes(s);
    check(self[0] == 100 - 40 - 10, "root self time");
    check(self[1] == 20 - 6, "child self time minus grandchild");
    check(self[2] == 30 && self[3] == 30 && self[4] == 6,
          "leaf self times are durations");
    // Layer sum: non-root self times over the root duration.
    std::vector<double> r = layerSumRatios(s, "root");
    check(r.size() == 1 && near(r[0], (14 + 30 + 30 + 6) / 100.0),
          "layer sum ratio");
    std::vector<Span> tiled = {span("session", 0, 100, -1, 7),
                               span("connect", 0, 10, 0, 7),
                               span("send", 10, 70, 0, 7),
                               span("finish", 70, 100, 0, 7)};
    r = layerSumRatios(tiled, "session");
    check(r.size() == 1 && near(r[0], 1.0), "tiled children sum to 1");
    r = layerSumRatios(tiled, "stream");
    check(r.empty(), "other roots are not counted");

    // Tracer: disabled records nothing; enabled nests.
    Tracer off(false);
    {
        Scoped x(off, "x", -1, 1);
        check(x.id() == -1, "disabled tracer hands out no ids");
    }
    check(off.spans().empty(), "disabled tracer stays empty");
    Tracer on(true);
    {
        Scoped root(on, "root", -1, 3);
        Scoped kid(on, "kid", root.id(), 3);
    }
    check(on.spans().size() == 2 && on.spans()[1].parent == 0 &&
              on.spans()[0].endNs >= on.spans()[1].endNs,
          "enabled tracer nests");

    // Scan samples are on-CPU time: waiting does not count.
    const uint64_t cpu0 = threadCpuNs(), wall0 = nowNs();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    check(nowNs() - wall0 >= 50000000 && threadCpuNs() - cpu0 < 10000000,
          "thread CPU time stands still while the thread sleeps");

    if (failures == 0)
        std::cout << "perfbench selftest: all checks passed\n";
    return failures == 0 ? 0 : 1;
}
