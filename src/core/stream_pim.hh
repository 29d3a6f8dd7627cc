/**
 * @file
 * StreamPimSystem: the top-level functional device (Fig. 7 + 14).
 *
 * A byte-addressable RM device whose PIM-bank subarrays are full
 * FunctionalSubarray instances (mats + RM bus + domain-wall
 * processor). The host talks to it exactly as Sec. IV describes:
 * regular reads/writes by address, and VPCs through the
 * asynchronous queue; the device decodes each VPC (VpcDecoder),
 * moves remote operands with read/write commands, executes the
 * arithmetic in the owning subarray, and responds.
 *
 * This is the bit-accurate sibling of the fast timed executor: it
 * computes real values with real domain movements. Examples and
 * integration tests use it with a scaled-down geometry; the
 * paper-scale timing experiments use Planner + Executor instead.
 *
 * processQueue() drains the queue through a dependency-aware
 * parallel engine (runtime/conflict_graph + parallel/ThreadPool):
 * VPCs whose subarray touch-sets are disjoint execute concurrently,
 * conflicting VPCs keep submit order, and the records come back in
 * exact submit order. Because every per-subarray structure (mats,
 * wear counters, fault-injector RNG stream) still observes its own
 * subarray-local subsequence of the batch in order, results are
 * byte-identical at any job count — see DESIGN.md §6.
 */

#ifndef STREAMPIM_CORE_STREAM_PIM_HH_
#define STREAMPIM_CORE_STREAM_PIM_HH_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "mem/address.hh"
#include "mem/subarray.hh"
#include "rm/params.hh"
#include "runtime/conflict_graph.hh"
#include "vpc/decoder.hh"
#include "vpc/vpc.hh"

namespace streampim
{

class ThreadPool;
class BatchJournal;

/** A small functional geometry that is cheap to instantiate. */
RmParams smallFunctionalParams();

/**
 * SMART-style per-bank health telemetry (host query): wear and
 * spare-pool state aggregated over one bank's subarrays, plus the
 * endurance counters of the bank's fault injectors when injection
 * has been enabled (zero otherwise).
 */
struct BankHealth
{
    unsigned bank = 0;
    std::uint64_t deposits = 0;     //!< nucleations committed
    std::uint64_t maxWear = 0;      //!< worst live save track
    std::uint64_t trackRemaps = 0;  //!< tracks retired onto spares
    unsigned sparesUsed = 0;
    unsigned sparesTotal = 0;
    std::uint64_t redeposits = 0;   //!< re-driven deposit pulses
    std::uint64_t writeFailures = 0; //!< commits lost for good

    unsigned
    remainingSpares() const
    {
        return sparesTotal - sparesUsed;
    }
};

/** Per-VPC execution record returned by the system. */
struct VpcExecutionRecord
{
    Vpc vpc;
    std::vector<BankCommand> commands;
    Cycle busCycles = 0;
    Cycle pipelineCycles = 0;
    bool remoteOperands = false; //!< operand collection was needed
    /** Fault-recovery outcome, merged across every subarray the VPC
     * touched (Clean when injection is off). A status other than
     * Failed guarantees the VPC's data is bit-exact. */
    VpcFaultInfo fault;
};

/** Top-level functional StreamPIM device. */
class StreamPimSystem
{
  public:
    /**
     * @param params device geometry; every subarray is instantiated
     *        functionally, so keep it small (smallFunctionalParams).
     */
    explicit StreamPimSystem(RmParams params =
                                 smallFunctionalParams());
    ~StreamPimSystem();

    const RmParams &params() const { return params_; }
    std::uint64_t capacityBytes() const;

    /** Host memory interface. @{ */
    void write(Addr addr, std::span<const std::uint8_t> data);
    std::vector<std::uint8_t> read(Addr addr, std::uint64_t count);
    /** @} */

    /** Enqueue a VPC (asynchronous send, Sec. IV-B). */
    bool submit(const Vpc &vpc);

    /**
     * Execute every queued VPC; returns one record per VPC, in
     * exact submit order.
     *
     * @param jobs worker threads for the dependency-aware parallel
     *        engine. 0 resolves through ThreadPool::resolveJobs()
     *        (STREAMPIM_JOBS / hardware concurrency, forced to 1
     *        inside a ThreadPool::SerialSection); 1 executes inline
     *        on the calling thread. Records, fault statistics and
     *        wear summaries are byte-identical at any job count.
     */
    std::vector<VpcExecutionRecord> processQueue(unsigned jobs = 0);

    /**
     * processQueue writing into @p records (resized to the batch).
     * Reuses the records' command buffers and the system's batch/
     * mask scratch: once warm, a serial (jobs == 1) drain of a
     * same-shaped batch in the default functional mode performs zero
     * heap allocations (tests/allocfree pins this). The parallel
     * engine still builds its per-batch conflict graph.
     */
    void processQueueInto(std::vector<VpcExecutionRecord> &records,
                          unsigned jobs = 0);

    /**
     * Transactional drain (runtime/recovery.hh): like
     * processQueueInto, but first journals the pre-batch bytes of
     * every region the batch's VPCs will write into @p journal
     * (cleared here), grouped per VPC in submit order. Snapshots go
     * through the fault-free controller path — injection is
     * detached and resumed around them, so the fault-injector RNG
     * streams are untouched and records stay byte-identical with a
     * journal-free drain at any job count.
     */
    void processQueueInto(std::vector<VpcExecutionRecord> &records,
                          unsigned jobs, BatchJournal &journal);

    /**
     * Join and drop the parallel engine's worker threads. The next
     * drain at more than one job starts them again, so a caller that
     * is done with the device can pay for the join inside its own
     * work instead of in the device's destructor.
     */
    void releaseWorkers();

    /** Transactional-recovery primitives (runtime/recovery.hh). @{ */

    /**
     * Open a new journal group for @p vpc and snapshot its write
     * regions (destination range, plus the executing subarray's
     * staging tail when operands/results are remote). Fault-free.
     * Returns the group index.
     */
    std::size_t journalVpc(BatchJournal &journal, const Vpc &vpc);

    /**
     * Snapshot [@p addr, @p addr + @p len) as an extra region of
     * existing group @p group (e.g. the re-homed destination before
     * a rung-2 re-execution). Fault-free.
     */
    void journalExtra(BatchJournal &journal, std::size_t group,
                      Addr addr, std::uint64_t len);

    /**
     * Restore every region of group @p group (base regions first,
     * then extras, each in snapshot order) through the fault-free
     * controller path. Deposit wear still accrues — the restore
     * writes are physically real — but no faults are sampled and no
     * RNG stream advances. Returns bytes restored.
     */
    std::uint64_t rollbackGroup(const BatchJournal &journal,
                                std::size_t group);

    /**
     * Execute @p vpc immediately (queue-less, serial, on the
     * calling thread) under the system's current injection attach
     * state. The recovery ladder re-executes rolled-back VPCs with
     * this; ordinary workloads use submit + processQueue.
     */
    VpcExecutionRecord executeSingle(const Vpc &vpc);

    /**
     * Fault-free controller copy of @p bytes bytes from @p src to
     * @p dst (spare-track-remap precedent: the controller's
     * ECC-checked read/write path). Used by recovery to evacuate
     * live data off a failing subarray. Wear accrues; no faults.
     */
    void controllerCopy(Addr src, Addr dst, std::uint64_t bytes);
    /** @} */

    /** Responses delivered so far (send-response protocol). */
    std::uint64_t responses() const { return queue_.responses(); }

    /** Aggregate energy across all subarrays. */
    EnergyMeter totalEnergy() const;

    FunctionalSubarray &subarray(unsigned global_id);

    /**
     * Shift-fault injection (host API). @{
     *
     * enableFaultInjection attaches one FaultInjector per subarray
     * (seed derived per subarray from cfg.seed, so runs are
     * deterministic and subarrays decorrelated). Every subsequent
     * VPC executes through the fallible datapath and reports its
     * recovery outcome in VpcExecutionRecord::fault.
     * Calling it while injection is active is a fatal error — it
     * would silently reseed every injector mid-run; disable first.
     * Re-enabling after a disable resets cleanly: fresh injectors,
     * fresh seeds, fresh statistics.
     * disableFaultInjection detaches the injectors but keeps their
     * statistics readable — use it before verification readout so
     * host reads do not sample further faults.
     * resumeFaultInjection re-attaches the injectors of a prior
     * enable without reseeding or clearing anything, so lifetime
     * campaigns can interleave fault-free readouts with further
     * injected rounds on one continuous RNG stream.
     */
    void enableFaultInjection(const FaultConfig &cfg);
    void disableFaultInjection();
    void resumeFaultInjection();

    /** Aggregate sampled-fault statistics across all subarrays. */
    FaultStats totalFaultStats() const;

    /** Injector of one subarray (nullptr when never enabled). */
    const FaultInjector *faultInjector(unsigned global_id) const;
    /** @} */

    /** Per-subarray wear summaries (planner placement input). */
    std::vector<SubarrayWear> wearSummaries() const;

    /**
     * SMART-style telemetry: one BankHealth per bank, aggregating
     * wear summaries (and injector endurance counters when fault
     * injection has been enabled) over the bank's subarrays.
     */
    std::vector<BankHealth> bankHealth() const;

  private:
    struct AddrPlace
    {
        unsigned globalSubarray;
        std::uint64_t offset;
    };

    /** Reusable per-worker staging buffers (no per-VPC alloc). */
    struct VpcScratch
    {
        std::vector<std::uint8_t> stage;  //!< TRAN / remote src2
        std::vector<std::uint8_t> result; //!< remote-dst store-out
        SubarrayVpcResult sub;            //!< executeVpcInto target
    };

    AddrPlace place(Addr addr) const;

    /** Subarray bits covered by the byte range [addr, addr+len). */
    std::uint64_t rangeMask(Addr addr, std::uint64_t len) const;

    /**
     * Subarray bits @p vpc touches when executed: the executing
     * subarray plus every subarray its TRAN transfer, remote-operand
     * staging, or remote-destination store-out reads or writes.
     * Mirrors executeOne()'s access pattern exactly — the conflict
     * graph derives all ordering from these masks.
     */
    std::uint64_t touchMask(const Vpc &vpc) const;

    /** read() appending into @p out (scratch-buffer variant). */
    void readInto(Addr addr, std::uint64_t count,
                  std::vector<std::uint8_t> &out);

    /** Execute one VPC in place, reusing @p rec's command buffer
     * and @p scratch's staging storage. */
    void executeOne(VpcExecutionRecord &rec, const Vpc &vpc,
                    VpcScratch &scratch);

    /** Execute one VPC inside its fault-attribution scope. */
    void executeScoped(VpcExecutionRecord &rec, const Vpc &vpc,
                       std::uint64_t mask, VpcScratch &scratch);

    /** Shared drain path: journal (optional), execute, respond. */
    void drainAndRun(std::vector<VpcExecutionRecord> &records,
                     unsigned jobs, BatchJournal *journal);

    /** Dependency-aware parallel execution of a drained batch. */
    void runParallel(const std::vector<Vpc> &batch,
                     const std::vector<std::uint64_t> &masks,
                     std::vector<VpcExecutionRecord> &records,
                     unsigned jobs);

    /** Lazily (re)build the engine pool for @p jobs workers. */
    void ensurePool(unsigned jobs);

    /** Open/close the per-VPC fault-attribution scope on the
     * injectors named by @p mask (remote staging faults land on
     * other subarrays, so the scope spans the full touch-set).
     * @{ */
    void beginVpcScopes(std::uint64_t mask);
    VpcFaultInfo endVpcScopes(std::uint64_t mask);
    /** @} */

    RmParams params_;
    AddressMap map_;
    VpcDecoder decoder_;
    VpcQueue queue_;
    std::vector<std::unique_ptr<FunctionalSubarray>> subarrays_;
    std::vector<std::unique_ptr<FaultInjector>> injectors_;
    bool faultsAttached_ = false;
    std::unique_ptr<ThreadPool> pool_; //!< engine workers (lazy)
    unsigned poolJobs_ = 0;

    /** processQueue scratch, retained across drains so steady-state
     * batches of the same shape allocate nothing. @{ */
    std::vector<Vpc> batchScratch_;
    std::vector<std::uint64_t> maskScratch_;
    VpcScratch serialScratch_; //!< the jobs == 1 worker's buffers
    ConflictGraph graph_;      //!< the engine's round DAG
    /** Per-task pending-predecessor counters; replaced, never
     * resized (atomics cannot move), only when a round outgrows
     * them. */
    std::vector<std::atomic<std::uint32_t>> pending_;
    /** @} */
};

} // namespace streampim

#endif // STREAMPIM_CORE_STREAM_PIM_HH_
