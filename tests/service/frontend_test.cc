// TCP front-end behaviour tests: protocol parity with the stdin loop,
// pipelining order, BATCH frames (shared admission + shared epoch pin),
// per-request protocol errors versus fatal teardowns, every slow-client
// defense, backpressure pausing, and graceful drain.
//
// Each test runs a real server (tests/service/net_util.h) and talks to it
// over real loopback sockets — no mocked transport; what is asserted here
// is what `nc` would see.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "service/net_util.h"
#include "storage/versioned_store.h"
#include "util/string_util.h"

namespace mcm::service {
namespace {

TEST(FrontendTest, SingleQueryMatchesTheOracle) {
  NetServer server;
  ASSERT_TRUE(server.ok());
  const size_t want = OracleCount(workload::MakeFigure1Style());

  LineClient client(server.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.Send("p(0, Y)?\n"));
  auto line = client.ReadLine();
  ASSERT_TRUE(line.has_value());
  auto ok = ParseOk(*line);
  ASSERT_TRUE(ok.has_value()) << *line;
  EXPECT_EQ(ok->tag, 1u);
  EXPECT_EQ(ok->tuples, want);
  EXPECT_FALSE(ok->stale);
  EXPECT_GT(ok->epoch, 0u);  // pinned to a real store version
  EXPECT_TRUE(server.Stop());
}

TEST(FrontendTest, PipelinedResponsesArriveInAskOrder) {
  NetServer server;
  ASSERT_TRUE(server.ok());
  const size_t want = OracleCount(workload::MakeFigure1Style());

  LineClient client(server.port());
  ASSERT_TRUE(client.ok());
  std::string burst;
  constexpr size_t kBurst = 8;
  for (size_t i = 0; i < kBurst; ++i) burst += "p(0, Y)?\n";
  ASSERT_TRUE(client.Send(burst));
  std::vector<std::string> lines = client.ReadLines(kBurst);
  for (size_t i = 0; i < lines.size(); ++i) {
    auto ok = ParseOk(lines[i]);
    ASSERT_TRUE(ok.has_value()) << lines[i];
    EXPECT_EQ(ok->tag, i + 1) << "responses must come back in ask order";
    EXPECT_EQ(ok->tuples, want);
  }
  EXPECT_TRUE(server.Stop());
}

TEST(FrontendTest, PrefixKnobsParseAndBadPrefixesAreRecoverableErrors) {
  NetServer server;
  ASSERT_TRUE(server.ok());

  LineClient client(server.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.Send("@timeout=30000 @stale_ok p(0, Y)?\n"
                          "@bogus p(0, Y)?\n"
                          "@timeout=abc p(0, Y)?\n"
                          "@timeout=5\n"
                          "p(0, Y)?\n"));
  std::vector<std::string> lines = client.ReadLines(5);
  EXPECT_TRUE(ParseOk(lines[0]).has_value()) << lines[0];
  EXPECT_TRUE(StartsWith(lines[1], "[2] error: unknown prefix '@bogus'"))
      << lines[1];
  EXPECT_TRUE(StartsWith(lines[2], "[3] error: bad @timeout value"))
      << lines[2];
  // A prefix with no query after it is a malformed request, not a hang.
  EXPECT_TRUE(StartsWith(lines[3], "[4] error: ")) << lines[3];
  // The stream stays usable after every per-request error.
  auto ok = ParseOk(lines[4]);
  ASSERT_TRUE(ok.has_value()) << lines[4];
  EXPECT_EQ(ok->tag, 5u);

  // Counters are published at the top of the next loop iteration, so a
  // read right after the response can race one push behind — poll.
  ServiceStats stats = server.WaitForStats([](const ServiceStats& s) {
    return s.frontend_stats.protocol_errors >= 3;
  });
  EXPECT_TRUE(stats.frontend);
  EXPECT_GE(stats.frontend_stats.protocol_errors, 3u);
  EXPECT_TRUE(server.Stop());
}

TEST(FrontendTest, SanitizerRejectsNulAndBadUtf8WithoutKillingTheStream) {
  NetServer server;
  ASSERT_TRUE(server.ok());

  LineClient client(server.port());
  ASSERT_TRUE(client.ok());
  std::string nul_line = "p(0, Y)?";
  nul_line.insert(2, 1, '\0');
  nul_line += "\n";
  ASSERT_TRUE(client.Send(nul_line));
  ASSERT_TRUE(client.Send("\xff\xfe p(0, Y)?\n"));
  ASSERT_TRUE(client.Send("p(0, Y)?\n"));
  std::vector<std::string> lines = client.ReadLines(3);
  EXPECT_TRUE(StartsWith(lines[0], "[1] error: embedded_nul")) << lines[0];
  EXPECT_TRUE(StartsWith(lines[1], "[2] error: invalid_utf8")) << lines[1];
  EXPECT_TRUE(ParseOk(lines[2]).has_value()) << lines[2];
  EXPECT_TRUE(server.Stop());
}

TEST(FrontendTest, CommentsAndBlankLinesAreFreeLikeStdin) {
  NetServer server;
  ASSERT_TRUE(server.ok());

  LineClient client(server.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.Send("\n# a comment\n\r\np(0, Y)?\n"));
  auto line = client.ReadLine();
  ASSERT_TRUE(line.has_value());
  auto ok = ParseOk(*line);
  ASSERT_TRUE(ok.has_value()) << *line;
  EXPECT_EQ(ok->tag, 1u) << "comments must not consume tags";
  EXPECT_TRUE(server.Stop());
}

TEST(FrontendTest, BatchMembersShareOneEpochAndEachGetsATaggedAnswer) {
  NetServer server;
  ASSERT_TRUE(server.ok());

  LineClient client(server.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.Send("BATCH 3\n"
                          "p(0, Y)?\n"
                          "@bogus p(0, Y)?\n"
                          "p(0, Y)?\n"));
  std::vector<std::string> lines = client.ReadLines(3);
  auto first = ParseOk(lines[0]);
  ASSERT_TRUE(first.has_value()) << lines[0];
  EXPECT_EQ(first->tag, 1u);
  // The invalid member gets its tagged error inline; its siblings run.
  EXPECT_TRUE(StartsWith(lines[1], "[2] error: unknown prefix")) << lines[1];
  auto third = ParseOk(lines[2]);
  ASSERT_TRUE(third.has_value()) << lines[2];
  EXPECT_EQ(third->tag, 3u);
  EXPECT_EQ(first->epoch, third->epoch)
      << "batch members must answer from one pinned version";

  // Advance the store's tip; a new batch pins the new version while both
  // members again agree with each other.
  UpdateBatch update;
  update.CreateRelation("zz_batch_epoch_probe", 2);
  auto committed = server.store()->Commit(update);
  ASSERT_TRUE(committed.ok()) << committed.status().ToString();

  ASSERT_TRUE(client.Send("BATCH 2\np(0, Y)?\np(0, Y)?\n"));
  std::vector<std::string> next = client.ReadLines(2);
  auto a = ParseOk(next[0]);
  auto b = ParseOk(next[1]);
  ASSERT_TRUE(a.has_value() && b.has_value()) << next[0] << " / " << next[1];
  EXPECT_EQ(a->epoch, b->epoch);
  EXPECT_GT(a->epoch, first->epoch);

  ServiceStats stats = server.WaitForStats(
      [](const ServiceStats& s) { return s.frontend_stats.batches >= 2; });
  EXPECT_GE(stats.frontend_stats.batches, 2u);
  EXPECT_TRUE(server.Stop());
}

TEST(FrontendTest, BatchHeaderErrorsAreTaggedAndRecoverable) {
  NetServer server;
  ASSERT_TRUE(server.ok());

  LineClient client(server.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.Send("BATCH 0\n"
                          "BATCH nope\n"
                          "BATCH 100000\n"
                          "p(0, Y)?\n"));
  std::vector<std::string> lines = client.ReadLines(4);
  EXPECT_TRUE(StartsWith(lines[0], "[1] error: BATCH count must be >= 1"))
      << lines[0];
  EXPECT_TRUE(StartsWith(lines[1], "[2] error: bad BATCH count")) << lines[1];
  EXPECT_TRUE(StartsWith(lines[2], "[3] error: BATCH count 100000 exceeds"))
      << lines[2];
  EXPECT_TRUE(ParseOk(lines[3]).has_value()) << lines[3];
  EXPECT_TRUE(server.Stop());
}

TEST(FrontendTest, TruncatedBatchYieldsTaggedErrorsNotAdmission) {
  NetServer server;
  ASSERT_TRUE(server.ok());

  LineClient client(server.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.Send("BATCH 3\np(0, Y)?\n"));
  client.HalfClose();
  auto line = client.ReadLine();
  ASSERT_TRUE(line.has_value());
  EXPECT_TRUE(
      StartsWith(*line, "[1] error: connection closed inside BATCH frame"))
      << *line;
  EXPECT_TRUE(client.AtEof());
  // Nothing from the truncated frame reached admission.
  ServiceStats stats = server.stats();
  EXPECT_EQ(stats.submitted, 0u);
  EXPECT_TRUE(server.Stop());
}

TEST(FrontendTest, ControlLinesAreUntaggedAndKeepResponseOrder) {
  FrontendOptions fopts = NetServer::DefaultFrontendOptions();
  fopts.control_handler =
      [](std::string_view line) -> std::optional<std::string> {
    if (line == ":ping") return std::string("pong\n");
    return std::nullopt;
  };
  NetServer server(NetServer::DefaultServiceOptions(), std::move(fopts));
  ASSERT_TRUE(server.ok());

  LineClient client(server.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.Send(":ping\np(0, Y)?\n:ping\n"));
  std::vector<std::string> lines = client.ReadLines(3);
  EXPECT_EQ(lines[0], "pong");
  auto ok = ParseOk(lines[1]);
  ASSERT_TRUE(ok.has_value()) << lines[1];
  EXPECT_EQ(ok->tag, 1u) << "control lines must not consume tags";
  EXPECT_EQ(lines[2], "pong");
  EXPECT_TRUE(server.Stop());
}

TEST(FrontendTest, OversizedLineIsAFatalTeardown) {
  FrontendOptions fopts = NetServer::DefaultFrontendOptions();
  fopts.line_limits.max_line_bytes = 4096;
  NetServer server(NetServer::DefaultServiceOptions(), std::move(fopts));
  ASSERT_TRUE(server.ok());

  LineClient client(server.port());
  ASSERT_TRUE(client.ok());
  std::string huge(8192, 'a');
  huge += "\n";
  ASSERT_TRUE(client.Send(huge));
  auto line = client.ReadLine();
  ASSERT_TRUE(line.has_value());
  EXPECT_TRUE(StartsWith(*line, "!fatal line_too_long")) << *line;
  EXPECT_TRUE(client.AtEof()) << "the framing is untrusted: must close";

  ServiceStats stats = server.WaitForStats([](const ServiceStats& s) {
    return s.frontend_stats.line_too_long >= 1;
  });
  EXPECT_EQ(stats.frontend_stats.line_too_long, 1u);
  EXPECT_TRUE(server.Stop());
}

TEST(FrontendTest, UnterminatedOversizedLineIsTornDownEarly) {
  FrontendOptions fopts = NetServer::DefaultFrontendOptions();
  fopts.line_limits.max_line_bytes = 4096;
  NetServer server(NetServer::DefaultServiceOptions(), std::move(fopts));
  ASSERT_TRUE(server.ok());

  LineClient client(server.port());
  ASSERT_TRUE(client.ok());
  // No newline ever arrives: the server must not buffer without bound.
  ASSERT_TRUE(client.Send(std::string(16384, 'b')));
  // The farewell is best-effort here: if the teardown fires while part of
  // the flood is still unread, closing resets the stream and the goodbye
  // can be clobbered. The counter and the close are the guarantees.
  if (auto line = client.ReadLine()) {
    EXPECT_TRUE(StartsWith(*line, "!fatal line_too_long")) << *line;
    EXPECT_TRUE(client.AtEof());
  }
  ServiceStats stats = server.WaitForStats([](const ServiceStats& s) {
    return s.frontend_stats.line_too_long >= 1;
  });
  EXPECT_EQ(stats.frontend_stats.line_too_long, 1u);
  EXPECT_TRUE(server.Stop());
}

TEST(FrontendTest, SlowlorisFirstLineDeadlineClosesTheConnection) {
  FrontendOptions fopts = NetServer::DefaultFrontendOptions();
  fopts.first_line_ms = 100;
  NetServer server(NetServer::DefaultServiceOptions(), std::move(fopts));
  ASSERT_TRUE(server.ok());

  LineClient client(server.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.Send("p("));  // dribble: never a complete line
  auto line = client.ReadLine();
  ASSERT_TRUE(line.has_value());
  EXPECT_TRUE(StartsWith(*line, "!fatal slowloris")) << *line;
  EXPECT_TRUE(client.AtEof());
  ServiceStats stats = server.WaitForStats([](const ServiceStats& s) {
    return s.frontend_stats.slowloris_closed >= 1;
  });
  EXPECT_EQ(stats.frontend_stats.slowloris_closed, 1u);
  EXPECT_TRUE(server.Stop());
}

TEST(FrontendTest, IdleConnectionsAreReaped) {
  FrontendOptions fopts = NetServer::DefaultFrontendOptions();
  fopts.first_line_ms = 0;  // isolate the idle reaper
  fopts.idle_ms = 100;
  NetServer server(NetServer::DefaultServiceOptions(), std::move(fopts));
  ASSERT_TRUE(server.ok());

  LineClient client(server.port());
  ASSERT_TRUE(client.ok());
  auto line = client.ReadLine();  // send nothing; wait for the reaper
  ASSERT_TRUE(line.has_value());
  EXPECT_TRUE(StartsWith(*line, "!fatal idle_timeout")) << *line;
  EXPECT_TRUE(client.AtEof());
  ServiceStats stats = server.WaitForStats([](const ServiceStats& s) {
    return s.frontend_stats.idle_reaped >= 1;
  });
  EXPECT_EQ(stats.frontend_stats.idle_reaped, 1u);
  EXPECT_TRUE(server.Stop());
}

TEST(FrontendTest, ResponseLargerThanWriteBufferIsAFatalOverflow) {
  FrontendOptions fopts = NetServer::DefaultFrontendOptions();
  fopts.write_buffer_bytes = 1024;
  NetServer server(NetServer::DefaultServiceOptions(), std::move(fopts));
  ASSERT_TRUE(server.ok());

  LineClient client(server.port());
  ASSERT_TRUE(client.ok());
  // An unknown-prefix error echoes the token, so a 2 KiB token forges a
  // response that can never fit the 1 KiB write buffer.
  std::string big = "@" + std::string(2048, 'x') + " p(0, Y)?\n";
  ASSERT_TRUE(client.Send(big));
  auto line = client.ReadLine();
  ASSERT_TRUE(line.has_value());
  EXPECT_TRUE(StartsWith(*line, "!fatal write_overflow")) << *line;
  EXPECT_TRUE(client.AtEof());
  ServiceStats stats = server.WaitForStats([](const ServiceStats& s) {
    return s.frontend_stats.write_overflow >= 1;
  });
  EXPECT_EQ(stats.frontend_stats.write_overflow, 1u);
  EXPECT_TRUE(server.Stop());
}

TEST(FrontendTest, HalfCloseFlushesEverythingInFlight) {
  NetServer server;
  ASSERT_TRUE(server.ok());

  LineClient client(server.port());
  ASSERT_TRUE(client.ok());
  // The final line is deliberately unterminated: printf 'q' | nc.
  ASSERT_TRUE(client.Send("p(0, Y)?\np(0, Y)?\np(0, Y)?"));
  client.HalfClose();
  std::vector<std::string> lines = client.ReadLines(3);
  for (size_t i = 0; i < lines.size(); ++i) {
    auto ok = ParseOk(lines[i]);
    ASSERT_TRUE(ok.has_value()) << lines[i];
    EXPECT_EQ(ok->tag, i + 1);
  }
  EXPECT_TRUE(client.AtEof());
  EXPECT_TRUE(server.Stop());
}

TEST(FrontendTest, PipelineCapPausesReadsAndEveryAnswerStillArrives) {
  ServiceOptions sopts = NetServer::DefaultServiceOptions();
  sopts.workers = 1;
  FrontendOptions fopts = NetServer::DefaultFrontendOptions();
  fopts.max_pipeline = 1;       // pause after a single in-flight request
  fopts.read_chunk_bytes = 16;  // force many small reads
  NetServer server(sopts, std::move(fopts));
  ASSERT_TRUE(server.ok());
  const size_t want = OracleCount(workload::MakeFigure1Style());

  LineClient client(server.port());
  ASSERT_TRUE(client.ok());
  constexpr size_t kBurst = 24;
  std::string burst;
  for (size_t i = 0; i < kBurst; ++i) burst += "p(0, Y)?\n";
  ASSERT_TRUE(client.Send(burst));
  std::vector<std::string> lines = client.ReadLines(kBurst, 60'000);
  for (size_t i = 0; i < lines.size(); ++i) {
    auto ok = ParseOk(lines[i]);
    ASSERT_TRUE(ok.has_value()) << lines[i];
    EXPECT_EQ(ok->tag, i + 1);
    EXPECT_EQ(ok->tuples, want);
  }
  ServiceStats stats = server.stats();
  EXPECT_GE(stats.frontend_stats.backpressure_pauses, 1u)
      << "a 1-deep pipeline over 24 requests must have paused";
  EXPECT_TRUE(server.Stop());
  // Drained: every admitted request was classified exactly once.
  stats = server.stats();
  EXPECT_EQ(stats.submitted, stats.TerminalTotal());
  EXPECT_EQ(stats.frontend_stats.paused, 0u);
}

TEST(FrontendTest, SecondConnectionWaitsOutTheAcceptCapThenGetsServed) {
  FrontendOptions fopts = NetServer::DefaultFrontendOptions();
  fopts.max_connections = 1;
  NetServer server(NetServer::DefaultServiceOptions(), std::move(fopts));
  ASSERT_TRUE(server.ok());

  auto first = std::make_unique<LineClient>(server.port());
  ASSERT_TRUE(first->ok());
  ASSERT_TRUE(first->Send("p(0, Y)?\n"));
  ASSERT_TRUE(first->ReadLine().has_value());

  // The second connection sits in the kernel backlog — accept
  // backpressure, not an error — and its bytes wait with it.
  LineClient second(server.port());
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(second.Send("p(0, Y)?\n"));

  first.reset();  // frees the only slot
  auto line = second.ReadLine();
  ASSERT_TRUE(line.has_value());
  EXPECT_TRUE(ParseOk(*line).has_value()) << *line;
  EXPECT_TRUE(server.Stop());
}

TEST(FrontendTest, WriteStallToNonReadingPeerIsAPoisonedTeardown) {
  FrontendOptions fopts = NetServer::DefaultFrontendOptions();
  fopts.write_buffer_bytes = 8192;
  fopts.write_stall_ms = 200;
  NetServer server(NetServer::DefaultServiceOptions(), std::move(fopts));
  ASSERT_TRUE(server.ok());

  // A client with a tiny receive window that never reads: unknown-prefix
  // error responses (~4 KiB each, no worker involved) pile up until the
  // kernel send buffer is full and write progress stops entirely.
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  int rcvbuf = 1024;
  setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  util::Socket client(fd);

  std::string junk = "@" + std::string(4000, 'j') + " p(0, Y)?\n";
  // Keep sending until our own writes back up (the backpressure made it
  // to this side of the wire) or we have queued far more than any send
  // buffer holds.
  for (int i = 0; i < 500; ++i) {
    if (!client.WriteAll(junk, 100).ok()) break;
  }
  ServiceStats stats = server.WaitForStats(
      [](const ServiceStats& s) { return s.frontend_stats.write_stalls >= 1; },
      10'000);
  EXPECT_GE(stats.frontend_stats.write_stalls, 1u)
      << "a peer that never reads must be torn down, not waited on";
  EXPECT_TRUE(server.Stop());
}

TEST(FrontendTest, DrainFinishesInFlightWorkAndRefusesNewConnections) {
  NetServer server;
  ASSERT_TRUE(server.ok());

  LineClient client(server.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.Send("p(0, Y)?\np(0, Y)?\n"));
  // Drain stops reading sockets, so bytes the server has not read yet are
  // (correctly) dropped; wait until both requests are admitted before
  // pulling the plug — those are the "in flight" work drain must finish.
  ServiceStats admitted = server.WaitForStats(
      [](const ServiceStats& s) { return s.frontend_stats.requests >= 2; });
  ASSERT_GE(admitted.frontend_stats.requests, 2u);
  server.frontend()->RequestDrain();
  std::vector<std::string> lines = client.ReadLines(2);
  EXPECT_TRUE(ParseOk(lines[0]).has_value()) << lines[0];
  EXPECT_TRUE(ParseOk(lines[1]).has_value()) << lines[1];
  EXPECT_TRUE(client.AtEof()) << "drained server must close cleanly";
  EXPECT_TRUE(server.Stop()) << "Run() must return within the drain budget";

  // The listener is gone: nobody new gets in.
  auto refused = util::Socket::Connect("127.0.0.1", server.port(), 500);
  if (refused.ok()) {
    // A race with kernel-level accept queues can let the connect through;
    // it must still see an immediate close.
    auto chunk = refused->ReadSome(64, 1000);
    EXPECT_TRUE(!chunk.ok() || chunk->empty());
  }
}

TEST(FrontendTest, StatsSurfaceInServiceToString) {
  NetServer server;
  ASSERT_TRUE(server.ok());
  LineClient client(server.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.Send("p(0, Y)?\n"));
  ASSERT_TRUE(client.ReadLine().has_value());
  ServiceStats stats = server.stats();
  EXPECT_TRUE(stats.frontend);
  std::string text = stats.ToString();
  EXPECT_NE(text.find("frontend:"), std::string::npos) << text;
  EXPECT_TRUE(server.Stop());
}

}  // namespace
}  // namespace mcm::service
