// End-to-end tests of the network front-end over a real loopback
// socket: a psc_serve-shaped Server wrapping a SearchService, driven by
// the Client library and by raw sockets sending malformed streams. The
// load-bearing property is bit-for-bit equality between a remote search
// and the in-process pipeline over the same store.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bio/fasta.hpp"
#include "bio/translate.hpp"
#include "core/result_codec.hpp"
#include "index/index_table.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "service/search_service.hpp"
#include "sim/genome_generator.hpp"
#include "sim/mutation.hpp"
#include "sim/protein_generator.hpp"
#include "store/bank_store.hpp"
#include "store/index_store.hpp"
#include "store/shard_store.hpp"
#include "support/temp_dir.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace psc::net {
namespace {

/// A saved reference bank under the server's bank root (same recipe as
/// the service tests). Removes the store files on destruction.
struct SavedBank {
  bio::SequenceBank proteins{bio::SequenceKind::kProtein};
  bio::SequenceBank genome_bank{bio::SequenceKind::kProtein};
  std::string name;    ///< prefix relative to the bank root (the wire form)
  std::string prefix;  ///< absolute store prefix

  explicit SavedBank(std::uint64_t seed, const std::string& bank_name)
      : name(bank_name) {
    util::Xoshiro256 rng(seed);
    for (int i = 0; i < 5; ++i) {
      proteins.add(sim::generate_protein("p" + std::to_string(i), 100, rng));
    }
    sim::GenomeConfig config;
    config.length = 20000;
    config.seed = seed;
    bio::Sequence genome = sim::generate_genome(config);
    sim::MutationConfig divergence;
    divergence.substitution_rate = 0.15;
    divergence.indel_rate = 0.0;
    sim::plant_gene(genome, sim::mutate_protein(proteins[0], divergence, rng),
                    3000, true, rng);
    sim::plant_gene(genome, sim::mutate_protein(proteins[2], divergence, rng),
                    9001, false, rng);
    genome_bank = bio::frames_to_bank(bio::translate_six_frames(genome));

    prefix = psc::test::temp_dir() + "/" + name;
    const index::SeedModel model = index::SeedModel::subset_w4();
    const index::IndexTable table(genome_bank, model);
    store::save_bank(prefix + ".pscbank", genome_bank);
    store::save_index(prefix + ".pscidx", table, model);
  }

  ~SavedBank() {
    std::remove((prefix + ".pscbank").c_str());
    std::remove((prefix + ".pscidx").c_str());
  }

  std::string fasta() const {
    std::ostringstream out;
    for (const bio::Sequence& protein : proteins) {
      out << ">" << protein.id() << "\n" << protein.to_letters() << "\n";
    }
    return out.str();
  }
};

/// A raw loopback connection for sending byte streams the Client would
/// refuse to produce.
class RawConnection {
 public:
  explicit RawConnection(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    timeval tv{};
    tv.tv_sec = 5;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(
        ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
        0);
  }

  ~RawConnection() { close(); }

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  void send_bytes(std::span<const std::uint8_t> bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
      ASSERT_GT(n, 0);
      sent += static_cast<std::size_t>(n);
    }
  }

  /// Reads one frame; nullopt on orderly EOF (or receive timeout).
  std::optional<Frame> read_frame() {
    for (;;) {
      if (auto frame = reader_.next()) return frame;
      std::uint8_t buffer[4096];
      const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
      if (n <= 0) return std::nullopt;
      reader_.feed({buffer, static_cast<std::size_t>(n)});
    }
  }

  /// True when the peer closed and no more frames are buffered.
  bool at_eof() {
    std::uint8_t byte = 0;
    const ssize_t n = ::recv(fd_, &byte, 1, 0);
    return n == 0;
  }

 private:
  int fd_ = -1;
  FrameReader reader_{1 << 20};
};

WireErrorCode expect_error_frame(const std::optional<Frame>& frame) {
  EXPECT_TRUE(frame.has_value());
  if (!frame) return WireErrorCode::kInternal;
  EXPECT_EQ(frame->type, static_cast<std::uint16_t>(MessageType::kError));
  return decode_error_payload(frame->payload).code();
}

class LoopbackTest : public ::testing::Test {
 protected:
  void start(ServerConfig config = {},
             service::ServiceConfig service_config = {}) {
    config.bank_root = psc::test::temp_dir();
    service_ = std::make_unique<service::SearchService>(service_config);
    server_ = std::make_unique<Server>(*service_, config);
    server_->start();
  }

  /// A non-empty `tenant` makes the client send the kHello handshake
  /// before anything else; empty keeps the legacy hello-less exchange.
  Client connect(const std::string& tenant = "") {
    ClientConfig config;
    config.port = server_->port();
    config.timeout_seconds = 20.0;
    config.tenant = tenant;
    return Client(config);
  }

  std::unique_ptr<service::SearchService> service_;
  std::unique_ptr<Server> server_;
};

TEST_F(LoopbackTest, SearchIsBitIdenticalToInProcessPipeline) {
  const SavedBank saved(21, "net_bitident");
  start();

  service::QueryOptions options;
  options.with_traceback = true;
  Client client = connect();
  const service::QueryResult remote =
      client.search(saved.name, saved.fasta(), options);
  ASSERT_FALSE(remote.matches.empty());

  // The same pass, in process: the service's own option baseline with
  // the per-query subset overlaid, over the same store files.
  core::PipelineOptions direct_options = service::default_service_options();
  direct_options.e_value_cutoff = options.e_value_cutoff;
  direct_options.with_traceback = options.with_traceback;
  direct_options.composition_based_stats = options.composition_based_stats;
  const bio::SequenceBank subject = store::load_bank(saved.prefix + ".pscbank");
  const index::SeedModel model = index::SeedModel::subset_w4();
  const store::LoadedIndex loaded =
      store::load_index(saved.prefix + ".pscidx", model, &subject);
  const core::PipelineResult direct = core::run_pipeline_with_index(
      saved.proteins, subject, loaded.table, direct_options);

  EXPECT_EQ(core::encode_matches(remote.matches),
            core::encode_matches(direct.matches));
}

TEST_F(LoopbackTest, PingAndStatsRoundTrip) {
  const SavedBank saved(22, "net_pingstats");
  start();
  Client client = connect();
  client.ping();

  const service::ServiceStats before = client.stats();
  EXPECT_EQ(before.queries_completed, 0u);

  client.search(saved.name, saved.fasta());
  const service::ServiceStats after = client.stats();
  EXPECT_EQ(after.queries_submitted, 1u);
  EXPECT_EQ(after.queries_completed, 1u);
  EXPECT_EQ(after.batches, 1u);
  EXPECT_GT(after.total_batch_latency_seconds, 0.0);
}

TEST_F(LoopbackTest, NonEmptyStatsPayloadIsBadRequestAndConnectionSurvives) {
  // A Stats request has no payload; any bytes there are outside input
  // and are refused, while the connection keeps serving.
  start();
  RawConnection raw(server_->port());
  const std::vector<std::vector<std::uint8_t>> payloads = {
      {6, 0, 0, 0}, {0}, {0xff, 0xff, 0xff, 0xff, 0xff}};
  for (const std::vector<std::uint8_t>& payload : payloads) {
    raw.send_bytes(encode_frame(MessageType::kStats, payload));
    EXPECT_EQ(expect_error_frame(raw.read_frame()),
              WireErrorCode::kBadRequest);
  }

  raw.send_bytes(encode_frame(MessageType::kStats));
  const auto stats_frame = raw.read_frame();
  ASSERT_TRUE(stats_frame.has_value());
  ASSERT_EQ(stats_frame->type,
            static_cast<std::uint16_t>(MessageType::kStatsResult));
  EXPECT_EQ(service::decode_service_stats(stats_frame->payload)
                .scheduler_policy,
            "affinity");
  raw.send_bytes(encode_frame(MessageType::kPing));
  const auto pong = raw.read_frame();
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(pong->type, static_cast<std::uint16_t>(MessageType::kPong));
}

TEST_F(LoopbackTest, RefreshManifestAdoptsAppendedGenerationInPlace) {
  // Live ingest through the wire: build a sharded store, serve it,
  // append a tail shard with a planted match, kRefreshManifest, and the
  // SAME server answers over the extended generation -- no restart.
  const SavedBank saved(27, "net_refresh_seed");
  const std::string name = "net_refresh";
  const std::string prefix = psc::test::temp_dir() + "/" + name;
  const index::SeedModel model = index::SeedModel::subset_w4();
  store::write_sharded_store(prefix, saved.genome_bank, model, 800);
  start();
  Client client = connect();
  const service::QueryResult before = client.search(name, saved.fasta());
  ASSERT_FALSE(before.matches.empty());

  bio::SequenceBank delta(bio::SequenceKind::kProtein);
  util::Xoshiro256 rng(28);
  sim::MutationConfig divergence;
  divergence.substitution_rate = 0.05;
  divergence.indel_rate = 0.0;
  delta.add(sim::mutate_protein(saved.proteins[3], divergence, rng));
  const store::ShardManifest extended =
      store::append_sharded_store(prefix, delta, model);
  EXPECT_EQ(client.refresh(name), 2u);

  const service::QueryResult after = client.search(name, saved.fasta());
  EXPECT_NE(core::encode_matches(after.matches),
            core::encode_matches(before.matches));
  const service::ServiceStats stats = client.stats();
  EXPECT_EQ(stats.manifest_refreshes, 1u);
  EXPECT_EQ(stats.store_revision, 2u);

  // A plain (manifest-less) pair refreshes as revision 0: the call
  // doubles as a cheap validity probe there, not an error.
  const SavedBank plain(29, "net_refresh_plain");
  EXPECT_EQ(client.refresh(plain.name), 0u);

  // The same admission gates as Search apply.
  const auto refresh_code = [&](const std::string& bank) {
    try {
      client.refresh(bank);
    } catch (const WireError& e) {
      return e.code();
    }
    ADD_FAILURE() << "expected WireError for bank=" << bank;
    return WireErrorCode::kInternal;
  };
  EXPECT_EQ(refresh_code("net_refresh_missing"), WireErrorCode::kBankNotFound);
  EXPECT_EQ(refresh_code("../escape"), WireErrorCode::kBadRequest);

  std::remove(store::manifest_path(prefix).c_str());
  for (std::size_t s = 0; s < extended.shards.size(); ++s) {
    const std::string pair = store::shard_prefix(prefix, s);
    std::remove((pair + ".pscbank").c_str());
    std::remove((pair + ".pscidx").c_str());
  }
}

TEST_F(LoopbackTest, ConcurrentClientsCoalesceIntoOneBatch) {
  const SavedBank saved(23, "net_coalesce");
  start();

  // A deliberately heavy in-process submit keeps the single worker busy;
  // the two remote searches below arrive meanwhile and must come out of
  // one shared pass (batches < queries in the stats frame). How long a
  // pass of a given size keeps the worker busy depends on the pipeline's
  // speed, so the priming bank doubles until one pass takes at least
  // kPrimingSeconds instead of having a fixed size.
  constexpr double kPrimingSeconds = 0.05;
  bio::SequenceBank heavy(bio::SequenceKind::kProtein);
  for (int repeat = 0; repeat < 8; ++repeat) {
    for (const bio::SequenceView protein : saved.proteins) heavy.add(protein);
  }
  for (int doubling = 0; doubling < 8; ++doubling) {
    util::Timer timer;
    service_->submit(heavy, saved.prefix).get();
    if (timer.seconds() >= kPrimingSeconds) break;
    const std::size_t copies = heavy.size();
    for (std::size_t i = 0; i < copies; ++i) heavy.add(heavy[i]);
  }

  bool coalesced = false;
  for (int attempt = 0; attempt < 5 && !coalesced; ++attempt) {
    // The clients start only once the worker has picked the priming
    // group: a worker that wakes late would otherwise drain the priming
    // request together with theirs into one pass of three.
    const std::uint64_t rounds = service_->snapshot().scheduler_rounds;
    auto priming = service_->submit(heavy, saved.prefix);
    while (service_->snapshot().scheduler_rounds == rounds) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    service::QueryResult a, b;
    std::thread first([&] {
      Client client = connect();
      a = client.search(saved.name, saved.fasta());
    });
    std::thread second([&] {
      Client client = connect();
      b = client.search(saved.name, saved.fasta());
    });
    first.join();
    second.join();
    priming.get();
    EXPECT_EQ(core::encode_matches(a.matches), core::encode_matches(b.matches));
    coalesced = a.batch_size == 2 && b.batch_size == 2;
  }
  EXPECT_TRUE(coalesced) << "two concurrent clients never shared a pass";

  Client client = connect();
  const service::ServiceStats stats = client.stats();
  EXPECT_LT(stats.batches, stats.queries_completed);
}

TEST_F(LoopbackTest, TypedErrorsForBadRequests) {
  const SavedBank saved(24, "net_errors");
  start();
  Client client = connect();

  const auto code_of = [&](const std::string& bank, const std::string& fasta) {
    try {
      client.search(bank, fasta);
      ADD_FAILURE() << "expected WireError for bank=" << bank;
      return WireErrorCode::kInternal;
    } catch (const WireError& e) {
      return e.code();
    }
  };

  EXPECT_EQ(code_of("no_such_bank", saved.fasta()),
            WireErrorCode::kBankNotFound);
  EXPECT_EQ(code_of("../escape", saved.fasta()), WireErrorCode::kBadRequest);
  EXPECT_EQ(code_of("/absolute", saved.fasta()), WireErrorCode::kBadRequest);
  EXPECT_EQ(code_of(saved.name, ""), WireErrorCode::kBadRequest);

  // The connection survives every typed error.
  client.ping();
  const service::QueryResult good = client.search(saved.name, saved.fasta());
  EXPECT_FALSE(good.matches.empty());
}

TEST_F(LoopbackTest, WrongMagicGetsErrorFrameThenClose) {
  start();
  RawConnection raw(server_->port());
  std::vector<std::uint8_t> junk(sizeof(FrameHeader), 0x5a);
  raw.send_bytes(junk);
  EXPECT_EQ(expect_error_frame(raw.read_frame()), WireErrorCode::kBadFrame);
  EXPECT_TRUE(raw.at_eof());
}

TEST_F(LoopbackTest, OversizedPayloadLengthGetsErrorFrameThenClose) {
  ServerConfig config;
  config.max_payload_bytes = 1024;
  start(config);
  RawConnection raw(server_->port());
  FrameHeader header;
  header.type = static_cast<std::uint16_t>(MessageType::kSearch);
  header.payload_bytes = std::uint64_t{1} << 40;
  std::vector<std::uint8_t> bytes(sizeof(header));
  std::memcpy(bytes.data(), &header, sizeof(header));
  raw.send_bytes(bytes);
  EXPECT_EQ(expect_error_frame(raw.read_frame()),
            WireErrorCode::kPayloadTooLarge);
  EXPECT_TRUE(raw.at_eof());
}

TEST_F(LoopbackTest, UnknownMessageTypeKeepsConnectionOpen) {
  start();
  RawConnection raw(server_->port());
  raw.send_bytes(encode_frame(static_cast<MessageType>(0x7777)));
  EXPECT_EQ(expect_error_frame(raw.read_frame()), WireErrorCode::kBadFrame);
  // Stream stayed in sync: a Ping on the same connection still answers.
  raw.send_bytes(encode_frame(MessageType::kPing));
  const auto pong = raw.read_frame();
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(pong->type, static_cast<std::uint16_t>(MessageType::kPong));
}

TEST_F(LoopbackTest, UndecodableSearchPayloadIsBadRequestNotClose) {
  start();
  RawConnection raw(server_->port());
  const std::vector<std::uint8_t> garbage = {0xde, 0xad, 0xbe, 0xef};
  raw.send_bytes(encode_frame(MessageType::kSearch, garbage));
  EXPECT_EQ(expect_error_frame(raw.read_frame()), WireErrorCode::kBadRequest);
  raw.send_bytes(encode_frame(MessageType::kPing));
  const auto pong = raw.read_frame();
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(pong->type, static_cast<std::uint16_t>(MessageType::kPong));
}

TEST_F(LoopbackTest, MidStreamDisconnectLeavesServerServing) {
  const SavedBank saved(25, "net_disconnect");
  start();
  {
    RawConnection raw(server_->port());
    const std::vector<std::uint8_t> frame = encode_frame(MessageType::kPing);
    raw.send_bytes({frame.data(), frame.size() / 2});
    // Drop the connection mid-frame; the server must treat it as a clean
    // close, not an error worth crashing over.
  }
  Client client = connect();
  client.ping();
  EXPECT_FALSE(client.search(saved.name, saved.fasta()).matches.empty());
}

TEST_F(LoopbackTest, StalledMidFramePeerGetsTimeoutThenClose) {
  ServerConfig config;
  config.read_timeout_seconds = 0.15;
  start(config);
  RawConnection raw(server_->port());
  const std::vector<std::uint8_t> frame = encode_frame(MessageType::kPing);
  raw.send_bytes({frame.data(), frame.size() / 2});
  EXPECT_EQ(expect_error_frame(raw.read_frame()), WireErrorCode::kTimeout);
  EXPECT_TRUE(raw.at_eof());
}

TEST_F(LoopbackTest, PipelinedRequestsAnswerInOrderAndCapInFlight) {
  const SavedBank saved(26, "net_pipeline");
  ServerConfig config;
  config.max_in_flight = 1;
  start(config);

  SearchRequestFrame request;
  request.bank_prefix = saved.name;
  request.query_fasta = saved.fasta();
  request.options.with_traceback = true;
  const std::vector<std::uint8_t> search =
      encode_frame(MessageType::kSearch, encode_search_request(request));

  RawConnection raw(server_->port());
  std::vector<std::uint8_t> burst;
  burst.insert(burst.end(), search.begin(), search.end());
  burst.insert(burst.end(), search.begin(), search.end());
  const std::vector<std::uint8_t> ping = encode_frame(MessageType::kPing);
  burst.insert(burst.end(), ping.begin(), ping.end());
  raw.send_bytes(burst);

  // Reply order must mirror request order: result for the first search,
  // the in-flight-cap error for the second, then the pong.
  const auto first = raw.read_frame();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->type,
            static_cast<std::uint16_t>(MessageType::kSearchResult));
  EXPECT_FALSE(service::decode_query_result(first->payload).matches.empty());
  EXPECT_EQ(expect_error_frame(raw.read_frame()),
            WireErrorCode::kTooManyInFlight);
  const auto pong = raw.read_frame();
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(pong->type, static_cast<std::uint16_t>(MessageType::kPong));
}

TEST_F(LoopbackTest, ServerStopsCleanlyWithIdleConnections) {
  start();
  RawConnection raw(server_->port());
  raw.send_bytes(encode_frame(MessageType::kPing));
  ASSERT_TRUE(raw.read_frame().has_value());
  server_->stop();
  EXPECT_TRUE(raw.at_eof());
}

TEST_F(LoopbackTest, IdleServerBlocksInPollInsteadOfTicking) {
  // Regression for the fixed 10 ms poll tick: an idle server (even one
  // with a quiet connection open) used to wake 100x/s doing nothing.
  // With no deferred future and no read deadline armed, the loop must
  // block in poll, so the wakeup gauge stays flat across an idle window.
  start();
  RawConnection raw(server_->port());
  raw.send_bytes(encode_frame(MessageType::kPing));
  ASSERT_TRUE(raw.read_frame().has_value());

  const std::uint64_t before = server_->poll_wakeups();
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  const std::uint64_t during_idle = server_->poll_wakeups() - before;
  // The old tick would clock ~40 wakeups here; allow a few strays for
  // EINTR and scheduling noise.
  EXPECT_LE(during_idle, 3u);

  // And the loop is still alive, not deadlocked in poll.
  raw.send_bytes(encode_frame(MessageType::kPing));
  ASSERT_TRUE(raw.read_frame().has_value());
}

TEST_F(LoopbackTest, StalledWriterDeadlineIsMetWithoutSpinning) {
  // A peer stalled mid-frame arms the read deadline; the poll timeout is
  // computed from that deadline, so the timeout answer arrives at the
  // deadline (not a tick late) and the wait itself costs a handful of
  // wakeups, not deadline/10ms of them.
  ServerConfig config;
  config.read_timeout_seconds = 0.25;
  start(config);
  RawConnection raw(server_->port());
  const std::uint64_t before = server_->poll_wakeups();
  const std::vector<std::uint8_t> frame = encode_frame(MessageType::kPing);
  const auto stalled_at = std::chrono::steady_clock::now();
  raw.send_bytes({frame.data(), frame.size() / 2});

  EXPECT_EQ(expect_error_frame(raw.read_frame()), WireErrorCode::kTimeout);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    stalled_at)
          .count();
  EXPECT_TRUE(raw.at_eof());
  // Not early, and missed by at most one tick (plus scheduling slack) --
  // never by a full extra poll period.
  EXPECT_GE(elapsed, 0.24);
  EXPECT_LE(elapsed, 0.40);
  // Accept + half-frame + deadline wakeup + close bookkeeping: single
  // digits. The historical tick would have burned ~25 wakeups waiting.
  EXPECT_LE(server_->poll_wakeups() - before, 10u);
}

TEST_F(LoopbackTest, ClientsWithDifferentOptionsNeverShareAPass) {
  // Two clients querying the same bank with *different* per-query
  // options must not coalesce, even when both are queued while the
  // worker is busy -- and each reply must reflect its own options.
  const SavedBank saved(27, "net_mixed_options");
  start();

  bio::SequenceBank heavy(bio::SequenceKind::kProtein);
  for (int repeat = 0; repeat < 8; ++repeat) {
    for (const bio::Sequence& protein : saved.proteins) heavy.add(protein);
  }
  // The priming pass keeps the worker busy while both clients queue. Its
  // options differ from both clients' (default options equal
  // plain_options, and a plain query arriving before the worker took the
  // priming one could legitimately coalesce with it).
  service::ServiceRequest priming_request;
  priming_request.query = heavy;
  priming_request.bank_prefix = saved.prefix;
  priming_request.options = service_->default_query_options();
  priming_request.options.composition_based_stats = true;
  auto priming = service_->submit(std::move(priming_request));

  service::QueryOptions traced_options;
  traced_options.with_traceback = true;
  service::QueryOptions plain_options;
  plain_options.with_traceback = false;
  service::QueryResult traced, plain;
  std::thread first([&] {
    Client client = connect();
    traced = client.search(saved.name, saved.fasta(), traced_options);
  });
  std::thread second([&] {
    Client client = connect();
    plain = client.search(saved.name, saved.fasta(), plain_options);
  });
  first.join();
  second.join();
  priming.get();

  EXPECT_EQ(traced.batch_size, 1u);
  EXPECT_EQ(plain.batch_size, 1u);
  ASSERT_FALSE(traced.matches.empty());
  ASSERT_EQ(traced.matches.size(), plain.matches.size());
  EXPECT_FALSE(traced.matches.front().alignment.ops.empty());
  for (const core::Match& match : plain.matches) {
    EXPECT_TRUE(match.alignment.ops.empty());
  }
}

TEST_F(LoopbackTest, HelloBindsTenant) {
  start();
  RawConnection raw(server_->port());

  HelloFrame hello;
  hello.tenant = "alice";
  raw.send_bytes(encode_frame(MessageType::kHello, encode_hello(hello)));
  const auto ack_frame = raw.read_frame();
  ASSERT_TRUE(ack_frame.has_value());
  ASSERT_EQ(ack_frame->type,
            static_cast<std::uint16_t>(MessageType::kHelloAck));
  EXPECT_EQ(decode_hello_ack(ack_frame->payload).tenant, "alice");

  // The Stats reply after a hello is the same keyed list as without one.
  raw.send_bytes(encode_frame(MessageType::kStats));
  const auto stats_frame = raw.read_frame();
  ASSERT_TRUE(stats_frame.has_value());
  ASSERT_EQ(stats_frame->type,
            static_cast<std::uint16_t>(MessageType::kStatsResult));
  EXPECT_EQ(service::decode_service_stats(stats_frame->payload)
                .scheduler_policy,
            "affinity");

  // An empty tenant is billed to the default tenant, and the ack says so.
  RawConnection anonymous(server_->port());
  anonymous.send_bytes(
      encode_frame(MessageType::kHello, encode_hello(HelloFrame{})));
  const auto default_ack = anonymous.read_frame();
  ASSERT_TRUE(default_ack.has_value());
  ASSERT_EQ(default_ack->type,
            static_cast<std::uint16_t>(MessageType::kHelloAck));
  EXPECT_EQ(decode_hello_ack(default_ack->payload).tenant,
            service::kDefaultTenantName);
}

TEST_F(LoopbackTest, ReplayedHelloIsRejectedAndConnectionSurvives) {
  start();
  RawConnection raw(server_->port());

  HelloFrame hello;
  hello.tenant = "alice";
  raw.send_bytes(encode_frame(MessageType::kHello, encode_hello(hello)));
  const auto first = raw.read_frame();
  ASSERT_TRUE(first.has_value());
  ASSERT_EQ(first->type, static_cast<std::uint16_t>(MessageType::kHelloAck));

  // Work may already be billed to 'alice'; a mid-session identity swap
  // cannot re-bill it, so the replay is a typed error...
  hello.tenant = "mallory";
  raw.send_bytes(encode_frame(MessageType::kHello, encode_hello(hello)));
  EXPECT_EQ(expect_error_frame(raw.read_frame()), WireErrorCode::kBadRequest);

  // ...and the connection keeps serving under the ORIGINAL identity.
  raw.send_bytes(encode_frame(MessageType::kPing));
  const auto pong = raw.read_frame();
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(pong->type, static_cast<std::uint16_t>(MessageType::kPong));
}

TEST_F(LoopbackTest, MalformedHelloIsBadRequestAndIdentityStaysOpen) {
  start();
  RawConnection raw(server_->port());

  // An invalid tenant name is rejected without consuming the one hello
  // slot: the client may retry with a valid identity.
  HelloFrame hello;
  hello.tenant = "not a valid name!";
  raw.send_bytes(encode_frame(MessageType::kHello, encode_hello(hello)));
  EXPECT_EQ(expect_error_frame(raw.read_frame()), WireErrorCode::kBadRequest);

  const std::vector<std::uint8_t> garbage = {0x01, 0x02};
  raw.send_bytes(encode_frame(MessageType::kHello, garbage));
  EXPECT_EQ(expect_error_frame(raw.read_frame()), WireErrorCode::kBadRequest);

  hello.tenant = "retry-ok";
  raw.send_bytes(encode_frame(MessageType::kHello, encode_hello(hello)));
  const auto ack = raw.read_frame();
  ASSERT_TRUE(ack.has_value());
  ASSERT_EQ(ack->type, static_cast<std::uint16_t>(MessageType::kHelloAck));
  EXPECT_EQ(decode_hello_ack(ack->payload).tenant, "retry-ok");
}

TEST_F(LoopbackTest, UnknownTenantIsAcceptedAndAccountedSeparately) {
  // No --tenant-config at all: an unheard-of tenant name still connects
  // (identity is accounting, not auth), its traffic lands in its own
  // stats row, and its reply bytes equal the default tenant's for the
  // same search -- fairness and accounting never touch result bytes.
  const SavedBank saved(28, "net_tenant_unknown");
  start();

  Client tenant_client = connect("zed");
  const service::QueryResult tenant_reply =
      tenant_client.search(saved.name, saved.fasta());
  Client legacy_client = connect();
  const service::QueryResult legacy_reply =
      legacy_client.search(saved.name, saved.fasta());
  EXPECT_EQ(core::encode_matches(tenant_reply.matches),
            core::encode_matches(legacy_reply.matches));

  // The tenant-aware client negotiated v5, so the rows come through.
  const service::ServiceStats stats = tenant_client.stats();
  const service::TenantStats* zed = nullptr;
  const service::TenantStats* fallback = nullptr;
  for (const service::TenantStats& row : stats.tenants) {
    if (row.name == "zed") zed = &row;
    if (row.name == service::kDefaultTenantName) fallback = &row;
  }
  ASSERT_NE(zed, nullptr) << "tenant 'zed' has no stats row";
  EXPECT_EQ(zed->admitted, 1u);
  EXPECT_EQ(zed->completed, 1u);
  EXPECT_EQ(zed->rejected, 0u);
  EXPECT_GT(zed->query_residues, 0u);
  // The hello-less client was billed to the default tenant.
  ASSERT_NE(fallback, nullptr) << "default tenant has no stats row";
  EXPECT_EQ(fallback->admitted, 1u);
}

TEST_F(LoopbackTest, OverQuotaSearchIsTypedErrorAndConnectionSurvives) {
  const SavedBank saved(29, "net_tenant_quota");
  ServerConfig server_config;
  service::ServiceConfig service_config;
  // One query admitted per second, bucket holds one token: of two
  // back-to-back pipelined searches the second MUST be rejected.
  service_config.tenants.default_policy.max_qps = 1.0;
  start(server_config, service_config);

  SearchRequestFrame request;
  request.bank_prefix = saved.name;
  request.query_fasta = saved.fasta();
  const std::vector<std::uint8_t> search =
      encode_frame(MessageType::kSearch, encode_search_request(request));

  RawConnection raw(server_->port());
  std::vector<std::uint8_t> burst;
  burst.insert(burst.end(), search.begin(), search.end());
  burst.insert(burst.end(), search.begin(), search.end());
  raw.send_bytes(burst);

  const auto first = raw.read_frame();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->type,
            static_cast<std::uint16_t>(MessageType::kSearchResult));
  // Typed rejection, not a hang and not a generic failure...
  EXPECT_EQ(expect_error_frame(raw.read_frame()),
            WireErrorCode::kQuotaExceeded);
  // ...and the connection is still fully usable afterwards.
  raw.send_bytes(encode_frame(MessageType::kPing));
  const auto pong = raw.read_frame();
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(pong->type, static_cast<std::uint16_t>(MessageType::kPong));
}

/// A scripted fake server: accepts exactly one connection on an
/// ephemeral loopback port and hands the connected fd to `script`,
/// which plays whatever bytes the test needs before the fd is closed.
/// For driving the *client's* failure paths with streams a real Server
/// would never produce.
class ScriptedServer {
 public:
  explicit ScriptedServer(std::function<void(int fd)> script) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(listen_fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = 0;
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    EXPECT_EQ(::listen(listen_fd_, 1), 0);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                            &len),
              0);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this, script = std::move(script)] {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) return;
      script(fd);
      ::close(fd);
    });
  }

  ~ScriptedServer() {
    thread_.join();
    ::close(listen_fd_);
  }

  std::uint16_t port() const { return port_; }

  /// Reads and discards one request frame so the scripted reply is not
  /// racing the client's send.
  static void drain_one_frame(int fd) {
    FrameReader reader(std::uint64_t{1} << 30);
    std::uint8_t buffer[64 * 1024];
    while (!reader.next()) {
      const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
      if (n <= 0) return;
      reader.feed({buffer, static_cast<std::size_t>(n)});
    }
  }

  static void send_all(int fd, const std::vector<std::uint8_t>& bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n =
          ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return;
      sent += static_cast<std::size_t>(n);
    }
  }

 private:
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread thread_;
};

template <typename Call>
WireErrorCode client_error_of(std::uint16_t port, Call call) {
  ClientConfig config;
  config.port = port;
  config.timeout_seconds = 5.0;  // the never-hang backstop
  try {
    Client client(config);
    call(client);
  } catch (const WireError& e) {
    return e.code();
  }
  ADD_FAILURE() << "expected a WireError";
  return WireErrorCode::kInternal;
}

TEST(ClientFailureTest, ConnectRefusedIsTypedUnreachable) {
  // Grab an ephemeral port and release it again: connecting to it now
  // gets ECONNREFUSED (nobody re-binds it that fast).
  int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(probe, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(
      ::bind(probe, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(probe, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const std::uint16_t dead_port = ntohs(addr.sin_port);
  ::close(probe);

  EXPECT_EQ(client_error_of(dead_port, [](Client& client) { client.ping(); }),
            WireErrorCode::kUnreachable);
}

TEST(ClientFailureTest, ServerClosingMidReplyIsTypedBadFrame) {
  ScriptedServer server([](int fd) {
    ScriptedServer::drain_one_frame(fd);
    // Half a Pong header, then close: the client sees EOF mid-frame.
    const std::vector<std::uint8_t> pong = encode_frame(MessageType::kPong);
    ScriptedServer::send_all(fd, {pong.begin(),
                                  pong.begin() + sizeof(FrameHeader) / 2});
  });
  EXPECT_EQ(
      client_error_of(server.port(), [](Client& client) { client.ping(); }),
      WireErrorCode::kBadFrame);
}

TEST(ClientFailureTest, TruncatedSearchResultFrameIsTypedBadFrame) {
  ScriptedServer server([](int fd) {
    ScriptedServer::drain_one_frame(fd);
    // A structurally valid frame of the right type whose payload stops
    // short of what the result codec needs: a decode failure, not EOF.
    const std::vector<std::uint8_t> truncated_payload = {0x01, 0x00};
    ScriptedServer::send_all(
        fd, encode_frame(MessageType::kSearchResult, truncated_payload));
  });
  EXPECT_EQ(client_error_of(server.port(),
                            [](Client& client) {
                              client.search("bank", ">q\nMKV\n");
                            }),
            WireErrorCode::kBadFrame);
}

TEST(ClientFailureTest, MalformedErrorPayloadIsTypedBadFrame) {
  ScriptedServer server([](int fd) {
    ScriptedServer::drain_one_frame(fd);
    // An Error frame whose own payload does not decode: still typed.
    const std::vector<std::uint8_t> garbage = {0xff};
    ScriptedServer::send_all(fd, encode_frame(MessageType::kError, garbage));
  });
  EXPECT_EQ(
      client_error_of(server.port(), [](Client& client) { client.ping(); }),
      WireErrorCode::kBadFrame);
}

TEST(ClientFailureTest, SilentServerHitsClientTimeoutNotAHang) {
  ScriptedServer server([](int fd) {
    // Read the request and say nothing until the client gives up.
    ScriptedServer::drain_one_frame(fd);
    ScriptedServer::drain_one_frame(fd);  // blocks until client closes
  });
  ClientConfig config;
  config.port = server.port();
  config.timeout_seconds = 0.2;
  Client client(config);
  try {
    client.ping();
    ADD_FAILURE() << "expected a WireError";
  } catch (const WireError& e) {
    EXPECT_EQ(e.code(), WireErrorCode::kTimeout);
  }
}

}  // namespace
}  // namespace psc::net
