// Tenant-fairness bench: what the weighted-fair (DRR) scheduler buys a
// light tenant sharing the service with a 10x-heavier one, against the
// FIFO drain order.
//
// The experiment is a deterministic scheduling simulation (no threads,
// no wall-clock noise): a heavy tenant keeps ten groups of work pending
// at all times while a light tenant keeps one, and each simulation step
// serves whichever group the policy under test picks. Because fairness
// only reorders -- group membership, and therefore every reply byte, is
// fixed before the scheduler runs (see service/scheduler.hpp) -- queue
// position IS the entire effect, so the simulation measures exactly
// what a wall-clock run would, minus the noise.
//
// Two figures of merit, FIFO vs DRR:
//   - Jain's fairness index over per-tenant service rates,
//     J = (sum x_i)^2 / (n * sum x_i^2): 1.0 is a perfect equal split,
//     1/n is one tenant taking everything.
//   - Heavy-tenant isolation: the light tenant's mean and p99 queue
//     wait (serves between a group's arrival and its own serve). Under
//     FIFO the light tenant waits behind the heavy backlog; under DRR
//     the wait is bounded by the deficit round, independent of how
//     deep the heavy tenant's backlog is.
//
// Writes BENCH_tenant_fairness.json for machine consumption.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "service/scheduler.hpp"

namespace {

using namespace psc;

constexpr std::uint64_t kGroupCost = 512;  // query residues per group
constexpr std::size_t kHeavyBacklog = 10;  // the 10:1 offered-load skew
constexpr int kServes = 5000;

struct Pending {
  service::GroupView view;
  int arrival_serve = 0;  ///< simulation step the group arrived at
};

struct RunResult {
  std::uint64_t heavy_served = 0;
  std::uint64_t light_served = 0;
  double light_mean_wait = 0.0;
  double light_p99_wait = 0.0;
  double jain = 0.0;
};

service::GroupView make_group(const std::string& tenant, std::uint64_t bank,
                              std::uint64_t seq) {
  service::GroupView view;
  view.bank = bank;
  view.earliest_seq = seq;
  view.work = kGroupCost;
  view.shares = {{tenant, kGroupCost}};
  return view;
}

/// Runs `kServes` simulation steps under one policy. `fair` switches
/// between the plain FIFO drain order and the DRR FairScheduler (both
/// tenants at weight 1: the skew is in offered load, and equal weights
/// mean "isolate me from my neighbor's backlog").
RunResult run(bool fair) {
  service::FairScheduler::Config config;
  config.within = service::SchedulerPolicy::kFifo;
  service::FairScheduler scheduler(config);
  const service::FairScheduler::WeightFn weight =
      [](const std::string&) { return 1.0; };

  std::vector<Pending> pending;
  std::uint64_t seq = 0;
  std::vector<int> light_waits;
  RunResult result;

  for (int serve = 0; serve < kServes; ++serve) {
    // Top up the offered load: heavy keeps kHeavyBacklog groups queued
    // (across four banks, so affinity cannot mask the skew), light one.
    std::size_t heavy = 0;
    bool light = false;
    for (const Pending& p : pending) {
      if (p.view.shares[0].tenant == "heavy") ++heavy;
      else light = true;
    }
    while (heavy < kHeavyBacklog) {
      pending.push_back({make_group("heavy", 1 + seq % 4, seq), serve});
      ++seq;
      ++heavy;
    }
    if (!light) {
      pending.push_back({make_group("light", 1 + seq % 4, seq), serve});
      ++seq;
    }

    std::vector<service::GroupView> groups;
    groups.reserve(pending.size());
    for (const Pending& p : pending) groups.push_back(p.view);
    const std::size_t pick =
        fair ? scheduler.pick(groups, 0, weight).index
             : service::pick_next_group(groups, 0,
                                        service::SchedulerPolicy::kFifo, 0)
                   .index;

    const Pending served = pending[pick];
    pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(pick));
    for (Pending& p : pending) ++p.view.rounds_waited;
    if (served.view.shares[0].tenant == "heavy") {
      result.heavy_served += served.view.work;
    } else {
      result.light_served += served.view.work;
      light_waits.push_back(serve - served.arrival_serve);
    }
  }

  if (!light_waits.empty()) {
    std::uint64_t total = 0;
    for (const int wait : light_waits) total += static_cast<std::uint64_t>(wait);
    result.light_mean_wait =
        static_cast<double>(total) / static_cast<double>(light_waits.size());
    std::sort(light_waits.begin(), light_waits.end());
    result.light_p99_wait = static_cast<double>(
        light_waits[light_waits.size() * 99 / 100]);
  }
  const double h = static_cast<double>(result.heavy_served);
  const double l = static_cast<double>(result.light_served);
  result.jain = (h + l) * (h + l) / (2.0 * (h * h + l * l));
  return result;
}

}  // namespace

int main() {
  std::fprintf(stderr,
               "# tenant fairness: %d serves, heavy backlog %zu, light 1 "
               "(10:1 offered load), group cost %llu residues\n",
               kServes, kHeavyBacklog,
               static_cast<unsigned long long>(kGroupCost));

  const RunResult fifo = run(/*fair=*/false);
  const RunResult fair = run(/*fair=*/true);

  std::printf("\n=== tenant fairness (10:1 offered-load skew) ===\n");
  std::printf("%-26s %12s %12s\n", "", "fifo", "fair (DRR)");
  std::printf("%-26s %12.3f %12.3f\n", "Jain fairness index", fifo.jain,
              fair.jain);
  std::printf("%-26s %12.1f %12.1f\n", "light mean wait (serves)",
              fifo.light_mean_wait, fair.light_mean_wait);
  std::printf("%-26s %12.0f %12.0f\n", "light p99 wait (serves)",
              fifo.light_p99_wait, fair.light_p99_wait);
  std::printf("%-26s %12llu %12llu\n", "light served (residues)",
              static_cast<unsigned long long>(fifo.light_served),
              static_cast<unsigned long long>(fair.light_served));
  std::printf("%-26s %12llu %12llu\n", "heavy served (residues)",
              static_cast<unsigned long long>(fifo.heavy_served),
              static_cast<unsigned long long>(fair.heavy_served));

  std::ofstream json("BENCH_tenant_fairness.json");
  json << "{\n"
       << "  \"serves\": " << kServes << ",\n"
       << "  \"heavy_backlog\": " << kHeavyBacklog << ",\n"
       << "  \"group_cost_residues\": " << kGroupCost << ",\n"
       << "  \"jain_fifo\": " << fifo.jain << ",\n"
       << "  \"jain_fair\": " << fair.jain << ",\n"
       << "  \"light_mean_wait_fifo\": " << fifo.light_mean_wait << ",\n"
       << "  \"light_mean_wait_fair\": " << fair.light_mean_wait << ",\n"
       << "  \"light_p99_wait_fifo\": " << fifo.light_p99_wait << ",\n"
       << "  \"light_p99_wait_fair\": " << fair.light_p99_wait << ",\n"
       << "  \"light_served_fifo\": " << fifo.light_served << ",\n"
       << "  \"light_served_fair\": " << fair.light_served << ",\n"
       << "  \"heavy_served_fifo\": " << fifo.heavy_served << ",\n"
       << "  \"heavy_served_fair\": " << fair.heavy_served << "\n"
       << "}\n";
  std::fprintf(stderr, "wrote BENCH_tenant_fairness.json\n");

  // The bench is also a regression gate: DRR must be measurably fairer
  // than FIFO and must actually isolate the light tenant's tail.
  const bool ok = fair.jain > fifo.jain && fair.jain > 0.95 &&
                  fair.light_p99_wait < fifo.light_p99_wait;
  if (!ok) std::fprintf(stderr, "tenant_fairness: FAIR DID NOT BEAT FIFO\n");
  return ok ? 0 : 1;
}
