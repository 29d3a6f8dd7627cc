#include "core/stream_pim.hh"

#include <atomic>
#include <bit>
#include <functional>

#include "common/log.hh"
#include "parallel/thread_pool.hh"
#include "runtime/conflict_graph.hh"
#include "runtime/recovery.hh"

namespace streampim
{

RmParams
smallFunctionalParams()
{
    RmParams p;
    p.banks = 2;
    p.pimBanks = 2;
    p.subarraysPerBank = 2;
    p.matsPerSubarray = 4;
    p.matBytes = 4 * 1024;      // 64 tracks x 512 domains / 8
    p.saveTracksPerMat = 64;
    p.transferTracksPerMat = 64;
    p.transferMatsPerSubarray = 2;
    p.domainsPerPort = 64;
    p.busLanes = 8;
    p.busLengthDomains = 512;
    p.busSegmentSize = 128;
    p.validate();
    return p;
}

StreamPimSystem::StreamPimSystem(RmParams params)
    : params_(params), map_(params_), decoder_(map_),
      queue_(1024)
{
    params_.validate();
    const unsigned tracks = params_.saveTracksPerMat;
    const unsigned domains = params_.domainsPerTrack();
    const unsigned total = params_.totalSubarrays();
    if (total > 64)
        SPIM_FATAL("functional geometry too large: ", total,
                   " subarrays; use the timed executor for full-size "
                   "configurations");
    subarrays_.reserve(total);
    for (unsigned i = 0; i < total; ++i)
        subarrays_.push_back(std::make_unique<FunctionalSubarray>(
            params_, params_.matsPerSubarray, tracks, domains));
}

// Out of line: ~ThreadPool is incomplete in the header.
StreamPimSystem::~StreamPimSystem() = default;

std::uint64_t
StreamPimSystem::capacityBytes() const
{
    return params_.totalBytes();
}

FunctionalSubarray &
StreamPimSystem::subarray(unsigned global_id)
{
    SPIM_ASSERT(global_id < subarrays_.size(),
                "subarray ", global_id, " out of range");
    return *subarrays_[global_id];
}

void
StreamPimSystem::enableFaultInjection(const FaultConfig &cfg)
{
    cfg.validate();
    // A second enable while injection runs would silently reseed
    // every injector mid-campaign; make the misuse loud. After a
    // disableFaultInjection() the reset below is intentional.
    SPIM_ASSERT(!faultsAttached_,
                "fault injection already enabled; call "
                "disableFaultInjection() first (or "
                "resumeFaultInjection() to keep the RNG streams)");
    injectors_.clear();
    injectors_.reserve(subarrays_.size());
    for (unsigned i = 0; i < subarrays_.size(); ++i) {
        FaultConfig derived = cfg;
        // Decorrelate subarrays deterministically (splitmix-style
        // odd multiplier keeps derived seeds distinct).
        derived.seed =
            cfg.seed ^ (0x9e3779b97f4a7c15ULL * (i + 1));
        injectors_.push_back(
            std::make_unique<FaultInjector>(derived));
        subarrays_[i]->setFaultInjector(injectors_.back().get());
    }
    faultsAttached_ = true;
}

void
StreamPimSystem::disableFaultInjection()
{
    for (auto &s : subarrays_)
        s->setFaultInjector(nullptr);
    faultsAttached_ = false;
}

void
StreamPimSystem::resumeFaultInjection()
{
    SPIM_ASSERT(!faultsAttached_,
                "fault injection already active; nothing to resume");
    SPIM_ASSERT(!injectors_.empty(),
                "resumeFaultInjection without a prior "
                "enableFaultInjection");
    for (unsigned i = 0; i < subarrays_.size(); ++i)
        subarrays_[i]->setFaultInjector(injectors_[i].get());
    faultsAttached_ = true;
}

FaultStats
StreamPimSystem::totalFaultStats() const
{
    FaultStats total;
    for (const auto &inj : injectors_)
        total.merge(inj->stats());
    return total;
}

const FaultInjector *
StreamPimSystem::faultInjector(unsigned global_id) const
{
    if (global_id >= injectors_.size())
        return nullptr;
    return injectors_[global_id].get();
}

std::vector<SubarrayWear>
StreamPimSystem::wearSummaries() const
{
    std::vector<SubarrayWear> out;
    out.reserve(subarrays_.size());
    for (const auto &s : subarrays_)
        out.push_back(s->wearSummary());
    return out;
}

std::vector<BankHealth>
StreamPimSystem::bankHealth() const
{
    std::vector<BankHealth> out(params_.banks);
    for (unsigned b = 0; b < params_.banks; ++b)
        out[b].bank = b;
    for (unsigned s = 0; s < subarrays_.size(); ++s) {
        BankHealth &h = out[s / params_.subarraysPerBank];
        const SubarrayWear w = subarrays_[s]->wearSummary();
        h.deposits += w.deposits;
        h.maxWear = std::max(h.maxWear, w.maxTrackWear);
        h.trackRemaps += w.remaps;
        h.sparesUsed += w.sparesUsed;
        h.sparesTotal += w.sparesTotal;
        if (s < injectors_.size()) {
            const FaultStats &st = injectors_[s]->stats();
            h.redeposits += st.redeposits;
            h.writeFailures += st.writeFailures;
        }
    }
    return out;
}

void
StreamPimSystem::beginVpcScopes(std::uint64_t mask)
{
    if (!faultsAttached_)
        return;
    for (std::uint64_t m = mask; m != 0; m &= m - 1) {
        auto &inj = *injectors_[unsigned(std::countr_zero(m))];
        if (inj.anyEnabled())
            inj.beginVpc();
    }
}

VpcFaultInfo
StreamPimSystem::endVpcScopes(std::uint64_t mask)
{
    VpcFaultInfo merged;
    if (!faultsAttached_)
        return merged;
    for (std::uint64_t m = mask; m != 0; m &= m - 1) {
        auto &inj = *injectors_[unsigned(std::countr_zero(m))];
        if (inj.scopeActive())
            merged.merge(inj.endVpc());
    }
    return merged;
}

StreamPimSystem::AddrPlace
StreamPimSystem::place(Addr addr) const
{
    SPIM_ASSERT(addr < capacityBytes(), "address out of range");
    const std::uint64_t per = params_.bytesPerSubarray();
    return {unsigned(addr / per), addr % per};
}

std::uint64_t
StreamPimSystem::rangeMask(Addr addr, std::uint64_t len) const
{
    if (len == 0)
        return 0;
    SPIM_ASSERT(addr + len <= capacityBytes(),
                "address range out of bounds");
    const std::uint64_t per = params_.bytesPerSubarray();
    const std::uint64_t first = addr / per;
    const std::uint64_t last = (addr + len - 1) / per;
    std::uint64_t mask = 0;
    for (std::uint64_t s = first; s <= last; ++s)
        mask |= std::uint64_t(1) << s;
    return mask;
}

std::uint64_t
StreamPimSystem::touchMask(const Vpc &vpc) const
{
    // Must mirror executeOne()'s access pattern exactly, including
    // reads/writes that span subarray boundaries.
    if (vpc.kind == VpcKind::Tran)
        return rangeMask(vpc.src1, vpc.size) |
               rangeMask(vpc.dst, vpc.size);

    const AddrPlace src1 = place(vpc.src1);
    std::uint64_t mask = std::uint64_t(1) << src1.globalSubarray;

    const std::uint32_t operand_len =
        vpc.kind == VpcKind::Smul ? 1 : vpc.size;
    const AddrPlace src2 = place(vpc.src2);
    if (src2.globalSubarray != src1.globalSubarray)
        mask |= rangeMask(vpc.src2, operand_len);

    const AddrPlace dst = place(vpc.dst);
    if (dst.globalSubarray != src1.globalSubarray) {
        const std::uint32_t result_len =
            vpc.kind == VpcKind::Mul ? 4 : vpc.size;
        mask |= rangeMask(vpc.dst, result_len);
    }
    return mask;
}

void
StreamPimSystem::write(Addr addr, std::span<const std::uint8_t> data)
{
    std::size_t done = 0;
    while (done < data.size()) {
        AddrPlace p = place(addr + done);
        std::uint64_t room =
            params_.bytesPerSubarray() - p.offset;
        std::uint64_t chunk =
            std::min<std::uint64_t>(room, data.size() - done);
        subarrays_[p.globalSubarray]->hostWrite(
            p.offset, data.subspan(done, chunk));
        done += chunk;
    }
}

std::vector<std::uint8_t>
StreamPimSystem::read(Addr addr, std::uint64_t count)
{
    std::vector<std::uint8_t> out;
    out.reserve(count);
    readInto(addr, count, out);
    return out;
}

void
StreamPimSystem::readInto(Addr addr, std::uint64_t count,
                          std::vector<std::uint8_t> &out)
{
    std::uint64_t done = 0;
    while (done < count) {
        AddrPlace p = place(addr + done);
        std::uint64_t room =
            params_.bytesPerSubarray() - p.offset;
        std::uint64_t chunk =
            std::min<std::uint64_t>(room, count - done);
        subarrays_[p.globalSubarray]->hostReadInto(p.offset, chunk,
                                                   out);
        done += chunk;
    }
}

bool
StreamPimSystem::submit(const Vpc &vpc)
{
    return queue_.push(vpc);
}

void
StreamPimSystem::executeOne(VpcExecutionRecord &rec, const Vpc &vpc,
                            VpcScratch &scratch)
{
    rec.vpc = vpc;
    decoder_.decodeInto(vpc, rec.commands);
    rec.busCycles = 0;
    rec.pipelineCycles = 0;
    rec.remoteOperands = false;
    rec.fault = VpcFaultInfo{};

    AddrPlace src1 = place(vpc.src1);
    FunctionalSubarray &exec = *subarrays_[src1.globalSubarray];

    if (vpc.kind == VpcKind::Tran) {
        // Read at the source, write at the destination (possibly
        // crossing banks).
        scratch.stage.clear();
        readInto(vpc.src1, vpc.size, scratch.stage);
        write(vpc.dst, scratch.stage);
        rec.remoteOperands = true;
        return;
    }

    // Operand collection: a remote src2 is staged into the
    // executing subarray's scratch area (its last row region) via
    // read/write commands, per the Fig. 14 decode rules.
    const std::uint32_t operand_len =
        vpc.kind == VpcKind::Smul ? 1 : vpc.size;
    AddrPlace src2 = place(vpc.src2);
    std::uint64_t src2_local = src2.offset;
    if (src2.globalSubarray != src1.globalSubarray) {
        scratch.stage.clear();
        readInto(vpc.src2, operand_len, scratch.stage);
        src2_local = exec.capacityBytes() - operand_len;
        exec.hostWrite(src2_local, scratch.stage);
        rec.remoteOperands = true;
    }

    // Result destination: local mats via the RM bus when possible,
    // otherwise a store-out through read/write commands.
    AddrPlace dst = place(vpc.dst);
    const bool dst_local =
        dst.globalSubarray == src1.globalSubarray;
    const std::uint32_t result_len =
        vpc.kind == VpcKind::Mul ? 4 : vpc.size;
    std::uint64_t dst_local_off = dst_local
        ? dst.offset
        : exec.capacityBytes() - operand_len - result_len;

    exec.executeVpcInto(vpc.kind, src1.offset, src2_local,
                        dst_local_off, vpc.size, scratch.sub);
    rec.busCycles = scratch.sub.busCycles;
    rec.pipelineCycles = scratch.sub.pipelineCycles;

    if (!dst_local) {
        scratch.result.clear();
        exec.hostReadInto(dst_local_off, result_len,
                          scratch.result);
        write(vpc.dst, scratch.result);
        rec.remoteOperands = true;
    }
}

void
StreamPimSystem::executeScoped(VpcExecutionRecord &rec,
                               const Vpc &vpc, std::uint64_t mask,
                               VpcScratch &scratch)
{
    // All fault activity between scope open and close — operand
    // staging on remote subarrays included — belongs to this VPC;
    // the touch mask names exactly the injectors involved.
    beginVpcScopes(mask);
    executeOne(rec, vpc, scratch);
    rec.fault = endVpcScopes(mask);
}

void
StreamPimSystem::ensurePool(unsigned jobs)
{
    if (pool_ && poolJobs_ == jobs)
        return;
    pool_.reset(); // join the old workers before respawning
    pool_ = std::make_unique<ThreadPool>(jobs);
    poolJobs_ = jobs;
}

void
StreamPimSystem::releaseWorkers()
{
    pool_.reset();
    poolJobs_ = 0;
}

void
StreamPimSystem::runParallel(
    const std::vector<Vpc> &batch,
    const std::vector<std::uint64_t> &masks,
    std::vector<VpcExecutionRecord> &records, unsigned jobs)
{
    graph_.build(masks);
    if (pending_.size() < batch.size())
        pending_ =
            std::vector<std::atomic<std::uint32_t>>(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i)
        pending_[i].store(graph_.predecessors(i),
                          std::memory_order_relaxed);

    ensurePool(jobs);

    // A task executes its VPC, then decrements every successor's
    // pending count. It keeps the first successor it made ready and
    // runs it next on the same thread, submitting only the others,
    // so a chain of VPCs is one pool task while a fan-out still
    // spreads over the workers. The submits happen inside the task
    // body (while the pool still counts it active), so
    // ThreadPool::wait() cannot return before the whole DAG drains.
    // acq_rel on the counter orders every predecessor's subarray
    // mutations before its successor runs; the continuation is
    // ordered after its own VPC by program order as well.
    constexpr std::uint32_t kNone = ~std::uint32_t(0);
    std::function<void(std::uint32_t)> run_chain =
        [&](std::uint32_t i) {
            static thread_local VpcScratch scratch;
            while (i != kNone) {
                executeScoped(records[i], batch[i], masks[i],
                              scratch);
                std::uint32_t next = kNone;
                for (std::uint32_t s : graph_.successors(i)) {
                    if (pending_[s].fetch_sub(
                            1, std::memory_order_acq_rel) != 1)
                        continue;
                    if (next == kNone)
                        next = s;
                    else
                        pool_->submit(
                            [&run_chain, s] { run_chain(s); });
                }
                i = next;
            }
        };
    for (std::uint32_t r : graph_.roots())
        pool_->submit([&run_chain, r] { run_chain(r); });
    pool_->wait();
}

std::vector<VpcExecutionRecord>
StreamPimSystem::processQueue(unsigned jobs)
{
    std::vector<VpcExecutionRecord> records;
    processQueueInto(records, jobs);
    return records;
}

void
StreamPimSystem::processQueueInto(
    std::vector<VpcExecutionRecord> &records, unsigned jobs)
{
    drainAndRun(records, jobs, nullptr);
}

void
StreamPimSystem::processQueueInto(
    std::vector<VpcExecutionRecord> &records, unsigned jobs,
    BatchJournal &journal)
{
    drainAndRun(records, jobs, &journal);
}

std::size_t
StreamPimSystem::journalVpc(BatchJournal &journal, const Vpc &vpc)
{
    const std::size_t group = journal.groupBegin_.size();
    journal.groupBegin_.push_back(
        std::uint32_t(journal.regions_.size()));
    journal.vpcs_.push_back(vpc);

    const bool was_attached = faultsAttached_;
    if (was_attached)
        disableFaultInjection();

    auto snap = [&](Addr addr, std::uint64_t len) {
        if (len == 0)
            return;
        BatchJournal::Region r;
        r.addr = addr;
        r.len = std::uint32_t(len);
        r.bytes = journal.arena_.alloc(len).data();
        std::vector<std::uint8_t> bytes;
        std::size_t done = 0;
        while (done < len) {
            AddrPlace p = place(addr + done);
            const std::uint64_t room =
                params_.bytesPerSubarray() - p.offset;
            const std::uint64_t chunk =
                std::min<std::uint64_t>(room, len - done);
            bytes.clear();
            subarrays_[p.globalSubarray]->hostReadInto(p.offset,
                                                       chunk, bytes);
            std::copy(bytes.begin(), bytes.end(), r.bytes + done);
            done += chunk;
        }
        journal.regions_.push_back(r);
        journal.snapshotBytes_ += len;
    };

    // Mirror executeOne()'s write set exactly: the destination
    // range, plus the executing subarray's staging tail when
    // operands/results are remote (those scratch bytes are part of
    // device memory too, so a rollback restores them bit-exact).
    if (vpc.kind == VpcKind::Tran) {
        snap(vpc.dst, vpc.size);
    } else {
        const std::uint32_t operand_len =
            vpc.kind == VpcKind::Smul ? 1 : vpc.size;
        const std::uint32_t result_len =
            vpc.kind == VpcKind::Mul ? 4 : vpc.size;
        snap(vpc.dst, result_len);

        const AddrPlace src1 = place(vpc.src1);
        const std::uint64_t cap =
            subarrays_[src1.globalSubarray]->capacityBytes();
        const Addr sub_base =
            Addr(src1.globalSubarray) * params_.bytesPerSubarray();
        const bool remote_src2 =
            place(vpc.src2).globalSubarray != src1.globalSubarray;
        const bool remote_dst =
            place(vpc.dst).globalSubarray != src1.globalSubarray;
        if (remote_src2 && remote_dst)
            snap(sub_base + cap - operand_len - result_len,
                 std::uint64_t(operand_len) + result_len);
        else if (remote_src2)
            snap(sub_base + cap - operand_len, operand_len);
        else if (remote_dst)
            snap(sub_base + cap - operand_len - result_len,
                 result_len);
    }

    if (was_attached)
        resumeFaultInjection();
    return group;
}

void
StreamPimSystem::journalExtra(BatchJournal &journal,
                              std::size_t group, Addr addr,
                              std::uint64_t len)
{
    SPIM_ASSERT(group < journal.groupBegin_.size(),
                "journalExtra: group ", group, " out of range");
    if (len == 0)
        return;
    const bool was_attached = faultsAttached_;
    if (was_attached)
        disableFaultInjection();
    BatchJournal::Region r;
    r.addr = addr;
    r.len = std::uint32_t(len);
    r.bytes = journal.arena_.alloc(len).data();
    std::vector<std::uint8_t> bytes = read(addr, len);
    std::copy(bytes.begin(), bytes.end(), r.bytes);
    journal.extras_.emplace_back(std::uint32_t(group), r);
    journal.snapshotBytes_ += len;
    if (was_attached)
        resumeFaultInjection();
}

std::uint64_t
StreamPimSystem::rollbackGroup(const BatchJournal &journal,
                               std::size_t group)
{
    SPIM_ASSERT(group < journal.groupBegin_.size(),
                "rollbackGroup: group ", group, " out of range");
    const bool was_attached = faultsAttached_;
    if (was_attached)
        disableFaultInjection();
    std::uint64_t restored = 0;
    const std::size_t begin = journal.groupBegin_[group];
    const std::size_t end = group + 1 < journal.groupBegin_.size()
        ? journal.groupBegin_[group + 1]
        : journal.regions_.size();
    for (std::size_t i = begin; i < end; ++i) {
        const BatchJournal::Region &r = journal.regions_[i];
        write(r.addr, {r.bytes, r.len});
        restored += r.len;
    }
    for (const auto &[g, r] : journal.extras_) {
        if (g != group)
            continue;
        write(r.addr, {r.bytes, r.len});
        restored += r.len;
    }
    if (was_attached)
        resumeFaultInjection();
    return restored;
}

VpcExecutionRecord
StreamPimSystem::executeSingle(const Vpc &vpc)
{
    VpcExecutionRecord rec;
    executeScoped(rec, vpc, touchMask(vpc), serialScratch_);
    return rec;
}

void
StreamPimSystem::controllerCopy(Addr src, Addr dst,
                                std::uint64_t bytes)
{
    if (bytes == 0)
        return;
    const bool was_attached = faultsAttached_;
    if (was_attached)
        disableFaultInjection();
    std::vector<std::uint8_t> data = read(src, bytes);
    write(dst, data);
    if (was_attached)
        resumeFaultInjection();
}

void
StreamPimSystem::drainAndRun(std::vector<VpcExecutionRecord> &records,
                             unsigned jobs, BatchJournal *journal)
{
    std::vector<Vpc> &batch = batchScratch_;
    batch.clear();
    batch.reserve(queue_.depth());
    while (!queue_.empty())
        batch.push_back(queue_.pop());

    if (journal) {
        journal->clear();
        for (const Vpc &vpc : batch)
            journalVpc(*journal, vpc);
    }

    std::vector<std::uint64_t> &masks = maskScratch_;
    masks.resize(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i)
        masks[i] = touchMask(batch[i]);

    // Stale entries from a reused records vector are fine:
    // executeOne overwrites every field in place.
    records.resize(batch.size());
    const unsigned want = ThreadPool::resolveJobs(jobs);
    if (want <= 1 || batch.size() <= 1) {
        for (std::size_t i = 0; i < batch.size(); ++i)
            executeScoped(records[i], batch[i], masks[i],
                          serialScratch_);
    } else {
        runParallel(batch, masks, records, want);
    }

    for (std::size_t i = 0; i < batch.size(); ++i)
        queue_.respond();
}

EnergyMeter
StreamPimSystem::totalEnergy() const
{
    EnergyMeter total;
    for (const auto &s : subarrays_)
        total.merge(s->energy());
    return total;
}

} // namespace streampim
