/**
 * @file
 * The host speed reference of the timed runs.
 *
 * The vCPUs of the reference host run the same instructions up to 40 %
 * slower in phases of seconds to minutes, each vCPU on its own, and
 * the host now and then takes a vCPU away altogether (steal time). A
 * slow vCPU also burns thread CPU time slowly, so no clock removes the
 * drift. A SpeedProbe measures both where the workload runs: one
 * sampler thread per probed CPU, pinned there, wakes every 20 ms,
 * times a fixed kernel that belongs to the benchmark (never to the
 * program, so no change to the program moves it) and reads the CPU's
 * steal counter. The kernel runs once untimed before each timed pass,
 * so the timed pass finds its own memory warm, whatever the workload
 * left in the caches.
 *
 * The timed phases convert each wall-clock interval into reference
 * time: the time the interval would have taken on a CPU of its own at
 * the reference kernel speed, integrating over the interval the share
 * of time not stolen divided by the measured slowdown.
 */

#ifndef CAMSBENCH_SPEED_HH
#define CAMSBENCH_SPEED_HH

#include <atomic>
#include <cstdint>
#include <sched.h>
#include <string>
#include <thread>
#include <vector>

namespace camsbench
{

class SpeedProbe
{
  public:
    /** Starts one pinned sampler per CPU in @p cpus. */
    explicit SpeedProbe(const std::vector<int> &cpus);
    ~SpeedProbe();
    SpeedProbe(const SpeedProbe &) = delete;
    SpeedProbe &operator=(const SpeedProbe &) = delete;

    /** Stops and joins the samplers, then builds the slowdown bins. */
    void stop();

    /**
     * Reference nanoseconds of the wall interval [@p t0, @p t1]
     * (steady-clock ns): the integral of (1 - steal(t)) / slowdown(t)
     * dt. Valid after stop().
     */
    double referenceNs(int64_t t0, int64_t t1) const;

    /** Median slowdown over all samples (1 = reference speed). */
    double medianSlowdown() const { return medianSlowdown_; }

    /** Share of the probed CPUs' time the host stole. */
    double stealShare() const { return stealShare_; }

    /** Samples taken by all samplers. */
    long samples() const { return samples_; }

    /** Samples every probed CPU should take per second. */
    double expectedRate() const;

  private:
    struct Slice
    {
        int64_t wallNs;
        double slowdown;
        /** The CPU's steal counter when the slice ended, in ns. */
        int64_t stealNs;
    };

    void sample(int cpu, std::vector<Slice> &out);

    std::atomic<bool> stop_{false};
    /** Kernel checksums, kept so the compiler keeps the kernel. */
    std::atomic<uint64_t> sink_{0};
    std::vector<std::thread> threads_;
    /** Each sampler's slices, in time order. */
    std::vector<std::vector<Slice>> perCpu_;
    long samples_ = 0;
    /**
     * Reference ns per wall ns, (1 - steal) / slowdown, of each bin of
     * binNs from origin_.
     */
    std::vector<double> rate_;
    int64_t origin_ = 0;
    double medianSlowdown_ = 1.0;
    double stealShare_ = 0.0;
};

/** Pins the calling thread to one CPU until destroyed. */
class PinScope
{
  public:
    explicit PinScope(int cpu);
    ~PinScope();
    PinScope(const PinScope &) = delete;
    PinScope &operator=(const PinScope &) = delete;

  private:
    cpu_set_t saved_;
};

class Report;

/**
 * Prints the sample count and median slowdown of the probe of phase
 * @p what, and fails the run when the probe sampled less than half as
 * often as it should have over @p wallSeconds: reference time would
 * then rest on too little.
 */
void reportSpeed(const SpeedProbe &probe, double wallSeconds,
                 Report &report, const std::string &what);

/** The CPU the calling thread runs on now (0 when unknown). */
int currentCpu();

/** Every online CPU of this process's affinity mask. */
std::vector<int> allCpus();

} // namespace camsbench

#endif // CAMSBENCH_SPEED_HH
