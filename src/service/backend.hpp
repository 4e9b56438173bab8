// The one interface the network front-end serves: anything that can
// answer a ServiceRequest with a future and report ServiceStats. Two
// implementations exist -- SearchService (a single node running the
// pipeline locally) and cluster::Router (a coordinator fanning the same
// request across shard-holding replicas). net::Server takes this
// interface, so the router reuses the hardened poll loop, per-connection
// limits and typed-error discipline unchanged, and psc_client cannot
// tell which of the two it is talking to.
#pragma once

#include <future>

#include "service/api.hpp"

namespace psc::service {

class SearchBackend {
 public:
  virtual ~SearchBackend() = default;

  /// Enqueues one request; failures surface as exceptions on the future
  /// (store::StoreError for store problems, net::WireError for typed
  /// cluster failures such as an uncovered shard).
  virtual std::future<ServiceResponse> submit_search(
      ServiceRequest request) = 0;

  /// One coherent counters/gauges snapshot; the Stats frame encodes
  /// whatever this returns (including a router's replica rows).
  virtual ServiceStats stats_snapshot() const = 0;

  /// Live-ingest adoption (store format v3): re-reads `bank_prefix`'s
  /// manifest and makes subsequent queries run against its current
  /// revision, without dropping already-resident generations (in-flight
  /// passes keep the shards they pinned). Returns the revision now
  /// being served (0 for a plain unsharded store or a v2 manifest).
  /// Failures surface as exceptions: store::StoreError for a missing or
  /// corrupt manifest, net::WireError(kRevisionMismatch) when a cluster
  /// coordinator rejects the new revision as not a strict extension of
  /// the one it is serving.
  virtual std::uint64_t refresh_manifest(const std::string& bank_prefix) = 0;
};

}  // namespace psc::service
