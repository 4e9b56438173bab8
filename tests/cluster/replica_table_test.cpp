// Unit tests for the cluster's replica bookkeeping: the --replicas spec
// parser and the ReplicaTable's candidate selection, counters and stats
// snapshot.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/replica_table.hpp"

namespace psc::cluster {
namespace {

TEST(ParseReplicaList, ParsesEndpointsAndShardSets) {
  const std::vector<ReplicaEndpoint> endpoints =
      parse_replica_list("10.0.0.1:7001=0,1;10.0.0.2:7002=1,2;");
  ASSERT_EQ(endpoints.size(), 2u);
  EXPECT_EQ(endpoints[0].host, "10.0.0.1");
  EXPECT_EQ(endpoints[0].port, 7001);
  EXPECT_EQ(endpoints[0].shards, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(endpoints[0].name(), "10.0.0.1:7001");
  EXPECT_EQ(endpoints[1].host, "10.0.0.2");
  EXPECT_EQ(endpoints[1].shards, (std::vector<std::size_t>{1, 2}));
}

TEST(ParseReplicaList, AllClaimCoversEveryShardIncludingFutureOnes) {
  // "=all" is the live-ingest form: the endpoint serves every manifest
  // shard, including tail shards appended after the router started.
  const std::vector<ReplicaEndpoint> endpoints =
      parse_replica_list("10.0.0.1:7001=all;10.0.0.2:7002=0,1");
  ASSERT_EQ(endpoints.size(), 2u);
  EXPECT_TRUE(endpoints[0].all_shards);
  EXPECT_TRUE(endpoints[0].shards.empty());
  EXPECT_TRUE(endpoints[0].serves(0));
  EXPECT_TRUE(endpoints[0].serves(999));
  EXPECT_FALSE(endpoints[1].all_shards);
  EXPECT_TRUE(endpoints[1].serves(1));
  EXPECT_FALSE(endpoints[1].serves(2));
  // "all" is a keyword, not a shard number prefix.
  EXPECT_THROW(parse_replica_list("h:7001=all,1"), std::invalid_argument);
}

TEST(ParseReplicaList, RejectsMalformedSpecs) {
  EXPECT_THROW(parse_replica_list(""), std::invalid_argument);
  EXPECT_THROW(parse_replica_list("host:7001"), std::invalid_argument);
  EXPECT_THROW(parse_replica_list("host=0,1"), std::invalid_argument);
  EXPECT_THROW(parse_replica_list(":7001=0"), std::invalid_argument);
  EXPECT_THROW(parse_replica_list("host:0=0"), std::invalid_argument);
  EXPECT_THROW(parse_replica_list("host:99999=0"), std::invalid_argument);
  EXPECT_THROW(parse_replica_list("host:7001="), std::invalid_argument);
  EXPECT_THROW(parse_replica_list("host:7001=a"), std::invalid_argument);
  EXPECT_THROW(parse_replica_list("host:abc=0"), std::invalid_argument);
}

std::vector<ReplicaEndpoint> three_replicas() {
  return parse_replica_list(
      "r0:7001=0,1;r1:7002=1,2;r2:7003=0,2");
}

TEST(ReplicaTableTest, ShardSpanAndCandidateSelection) {
  ReplicaTable table(three_replicas());
  EXPECT_EQ(table.size(), 3u);
  EXPECT_EQ(table.shard_span(), 3u);

  EXPECT_EQ(table.live_candidates(0), (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(table.live_candidates(1), (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(table.live_candidates(2), (std::vector<std::size_t>{1, 2}));
  EXPECT_TRUE(table.live_candidates(3).empty());
}

TEST(ReplicaTableTest, DownReplicasLeaveRotationAndComeBack) {
  ReplicaTable table(three_replicas());
  table.set_up(0, false);
  EXPECT_FALSE(table.is_up(0));
  EXPECT_EQ(table.live_candidates(0), (std::vector<std::size_t>{2}));
  EXPECT_EQ(table.live_candidates(1), (std::vector<std::size_t>{1}));

  table.set_up(2, false);
  EXPECT_TRUE(table.live_candidates(0).empty());

  table.set_up(0, true);
  EXPECT_EQ(table.live_candidates(0), (std::vector<std::size_t>{0}));
}

TEST(ReplicaTableTest, LeastInflightReplicaIsPreferred) {
  ReplicaTable table(three_replicas());
  // Load replica 0 with two in-flight attempts; shard 0's other holder
  // (replica 2) must now come first.
  table.attempt_started(0, AttemptKind::kPrimary);
  table.attempt_started(0, AttemptKind::kPrimary);
  table.attempt_started(2, AttemptKind::kPrimary);
  EXPECT_EQ(table.live_candidates(0), (std::vector<std::size_t>{2, 0}));
  // Draining replica 0 restores the index tiebreak.
  table.attempt_finished(0, true, 0.01);
  table.attempt_finished(0, true, 0.02);
  table.attempt_finished(2, true, 0.03);
  EXPECT_EQ(table.live_candidates(0), (std::vector<std::size_t>{0, 2}));
}

TEST(ReplicaTableTest, SnapshotReportsCountersAndLatencies) {
  ReplicaTable table(three_replicas());
  table.attempt_started(1, AttemptKind::kPrimary);
  table.attempt_finished(1, true, 0.10);
  table.attempt_started(1, AttemptKind::kRetry);
  table.attempt_finished(1, true, 0.30);
  table.attempt_started(1, AttemptKind::kHedge);
  table.attempt_finished(1, true, 0.20);
  table.attempt_started(1, AttemptKind::kPrimary);
  table.attempt_finished(1, false, 0.0);
  table.attempt_started(1, AttemptKind::kPrimary);
  table.attempt_cancelled(1);
  table.set_up(1, false);

  const std::vector<service::ReplicaStats> rows = table.snapshot();
  ASSERT_EQ(rows.size(), 3u);
  const service::ReplicaStats& row = rows[1];
  EXPECT_EQ(row.endpoint, "r1:7002");
  EXPECT_FALSE(row.up);
  EXPECT_EQ(row.inflight, 0u);
  EXPECT_EQ(row.requests, 5u);
  EXPECT_EQ(row.retries, 1u);
  EXPECT_EQ(row.hedges, 1u);
  EXPECT_EQ(row.failures, 1u);
  // Successful latencies were {0.10, 0.30, 0.20}: the median is 0.20
  // and the max 0.30; the failure and the cancellation contribute none.
  EXPECT_DOUBLE_EQ(row.p50_latency_seconds, 0.20);
  EXPECT_DOUBLE_EQ(row.max_latency_seconds, 0.30);

  // Untouched replicas report zeroed counters and stay up.
  EXPECT_TRUE(rows[0].up);
  EXPECT_EQ(rows[0].requests, 0u);
  EXPECT_DOUBLE_EQ(rows[0].p50_latency_seconds, 0.0);
}

TEST(ReplicaTableTest, BenchAndReviveCountTransitionsNotReprobes) {
  // The health checker re-asserts a replica's state every probe round;
  // only actual up<->down TRANSITIONS may count, or a replica that is
  // down for a minute looks like it was benched dozens of times.
  ReplicaTable table(three_replicas());

  table.set_up(1, false);
  table.set_up(1, false);  // probe round re-confirms: no new transition
  table.set_up(1, false);
  std::vector<service::ReplicaStats> rows = table.snapshot();
  EXPECT_EQ(rows[1].benched, 1u);
  EXPECT_EQ(rows[1].revived, 0u);
  EXPECT_FALSE(rows[1].up);

  table.set_up(1, true);
  table.set_up(1, true);
  rows = table.snapshot();
  EXPECT_EQ(rows[1].benched, 1u);
  EXPECT_EQ(rows[1].revived, 1u);
  EXPECT_TRUE(rows[1].up);

  // A full flap cycle counts one of each more.
  table.set_up(1, false);
  table.set_up(1, true);
  rows = table.snapshot();
  EXPECT_EQ(rows[1].benched, 2u);
  EXPECT_EQ(rows[1].revived, 2u);

  // Re-asserting the initial up state at startup is not a revival.
  EXPECT_EQ(rows[0].benched, 0u);
  EXPECT_EQ(rows[0].revived, 0u);
  table.set_up(0, true);
  EXPECT_EQ(table.snapshot()[0].revived, 0u);
}

}  // namespace
}  // namespace psc::cluster
