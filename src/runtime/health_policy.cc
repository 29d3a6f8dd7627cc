#include "runtime/health_policy.hh"

#include <algorithm>
#include <numeric>

#include "common/log.hh"

namespace streampim
{

void
HealthPolicyConfig::validate() const
{
    if (cadence < 1)
        SPIM_FATAL("health policy cadence must be >= 1 round, got ",
                   cadence);
}

HealthPolicy::HealthPolicy(const HealthPolicyConfig &cfg,
                           unsigned total_subarrays,
                           unsigned subarrays_per_bank)
    : cfg_(cfg), totalSubarrays_(total_subarrays),
      subarraysPerBank_(subarrays_per_bank), rank_(total_subarrays),
      quarantined_(total_subarrays, false)
{
    cfg_.validate();
    SPIM_ASSERT(total_subarrays >= 1 && subarrays_per_bank >= 1,
                "health policy needs a non-empty device geometry");
    std::iota(rank_.begin(), rank_.end(), 0);
}

unsigned
HealthPolicy::bankOf(std::uint32_t sub) const
{
    SPIM_ASSERT(sub < totalSubarrays_,
                "subarray ", sub, " out of range");
    return sub / subarraysPerBank_;
}

unsigned
HealthPolicy::bankRemainingSpares(std::span<const BankHealth> health,
                                  std::uint32_t sub) const
{
    const unsigned bank = bankOf(sub);
    for (const BankHealth &h : health)
        if (h.bank == bank)
            return h.remainingSpares();
    // A bank missing from the snapshot has reported nothing yet:
    // treat it as pristine (nothing to migrate away from).
    return cfg_.migrationSpareThreshold;
}

unsigned
HealthPolicy::quarantinedCount() const
{
    return unsigned(std::count(quarantined_.begin(),
                               quarantined_.end(), true));
}

std::uint32_t
HealthPolicy::leastWornTarget(
    std::span<const SubarrayWear> wear, std::uint32_t avoid,
    const std::function<bool(std::uint32_t)> &excluded) const
{
    SPIM_ASSERT(wear.size() == totalSubarrays_,
                "wear snapshot covers ", wear.size(),
                " subarrays, device has ", totalSubarrays_);
    const auto total = std::uint32_t(wear.size());
    std::uint32_t best = total;
    for (std::uint32_t s = 0; s < total; ++s) {
        if (s == avoid || isQuarantined(s) || (excluded && excluded(s)))
            continue;
        if (best == total ||
            healthKey(wear[s], s) < healthKey(wear[best], best))
            best = s;
    }
    return best;
}

HealthDecision
HealthPolicy::evaluate(std::span<const BankHealth> health,
                       std::span<const SubarrayWear> wear,
                       std::span<const std::uint32_t> homes)
{
    SPIM_ASSERT(wear.size() == totalSubarrays_,
                "wear snapshot covers ", wear.size(),
                " subarrays, device has ", totalSubarrays_);
    evaluations_++;

    HealthDecision d;

    // 1. Re-rank by the worst live save track per subarray
    // (remapping resets per-track wear onto fresh spares, so
    // maxTrackWear tracks the *surviving* headroom, which is the
    // quantity placement should spread). The sort is stable, so
    // ties keep the previous evaluation's order.
    auto worst = [&wear](std::uint32_t s) {
        return wear[s].maxTrackWear;
    };
    std::stable_sort(rank_.begin(), rank_.end(),
                     [&worst](std::uint32_t a, std::uint32_t b) {
                         return worst(a) < worst(b);
                     });

    // 2. Quarantine (sticky): spares are per-mat, so a subarray
    // with any fully-exhausted mat has no remapping headroom where
    // its write traffic concentrates — the next worn-out track
    // there fails a VPC for good. Retire it from placement now.
    if (cfg_.quarantine) {
        for (unsigned s = 0; s < totalSubarrays_; ++s) {
            if (quarantined_[s] || wear[s].exhaustedMats == 0)
                continue;
            quarantined_[s] = true;
            d.newlyQuarantined.push_back(s);
        }
    }

    // 3. Migration decisions, one home at a time in operand order.
    // A home moves when its bank's spare pool dropped below the
    // spare threshold, its worst track crossed the wear threshold,
    // or the subarray itself is quarantined — onto the best-ranked
    // candidate that is not quarantined, not another home, and
    // strictly healthier. No candidate means the device has nowhere
    // better left and the operand stays (graceful degradation, not
    // ping-pong).
    std::vector<std::uint32_t> cur(homes.begin(), homes.end());
    for (unsigned r = 0; r < cur.size(); ++r) {
        const std::uint32_t h = cur[r];
        SPIM_ASSERT(h < totalSubarrays_,
                    "operand ", r, " homed out of range");
        const bool forced = isQuarantined(h);
        const unsigned rem = bankRemainingSpares(health, h);
        const bool worn = cfg_.migrationWearThreshold > 0 &&
                          worst(h) > cfg_.migrationWearThreshold;
        if (!forced && !worn && rem >= cfg_.migrationSpareThreshold)
            continue;
        for (std::uint32_t c : rank_) {
            if (c == h || isQuarantined(c))
                continue;
            if (std::find(cur.begin(), cur.end(), c) != cur.end())
                continue;
            const unsigned crem = bankRemainingSpares(health, c);
            const bool healthier =
                crem > rem || worst(c) < worst(h);
            if (!forced && !healthier)
                continue;
            d.migrations.push_back({r, h, c});
            cur[r] = c;
            break;
        }
    }
    return d;
}

} // namespace streampim
