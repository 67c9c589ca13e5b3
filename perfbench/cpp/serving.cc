// serving_mixed: a durable engine behind an in-process soda::Server, driven
// by three closed-loop wire clients.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <thread>

#include "server/protocol.h"
#include "util/rng.h"
#include "util/socket.h"
#include "workloads.h"

namespace soda::perfbench {

namespace {

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t x = a * 0x9E3779B97F4A7C15ULL ^ (b + 0x632BE59BD9B4E019ULL);
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

constexpr const char* kPrepareSql =
    "PREPARE get_order (BIGINT) AS SELECT o_id, c_id, amount, status "
    "FROM orders WHERE o_id = $1";

/// A lockstep wire client: one request, one reply.
class Client {
 public:
  Status Connect(uint16_t port) {
    SODA_ASSIGN_OR_RETURN(sock_, ConnectTcp("127.0.0.1", port));
    SODA_ASSIGN_OR_RETURN(ServerReply hello, Read());
    if (hello.type != MsgType::kHello) {
      return hello.status.ok() ? Status::Internal("expected hello")
                               : hello.status;
    }
    return Status::OK();
  }
  Result<ServerReply> Call(MsgType type, const std::string& body) {
    SODA_RETURN_NOT_OK(WriteFrame(sock_, type, body));
    return Read();
  }

 private:
  Result<ServerReply> Read() {
    SODA_ASSIGN_OR_RETURN(Frame frame, ReadFrame(sock_, kDefaultMaxFrameBytes));
    return DecodeServerReply(frame);
  }
  Socket sock_;
};

void CheckOrderRow(const ServingSetup& s, const ServerReply& reply,
                   int64_t o_id) {
  const TablePtr& t = reply.table;
  if (t == nullptr || t->num_rows() != 1) {
    OracleFail("serving_point", "order " + std::to_string(o_id) +
                                    " returned " +
                                    std::to_string(t ? t->num_rows() : 0) +
                                    " rows");
    return;
  }
  const double amount = Perturbed("serving_point", t->column(2).GetNumeric(0));
  if (t->column(0).GetBigInt(0) != o_id ||
      t->column(1).GetBigInt(0) != OrderCustomer(s.seed, o_id, s.customers) ||
      amount != OrderAmount(s.seed, o_id) ||
      t->column(3).GetBigInt(0) != OrderStatus(s.seed, o_id)) {
    OracleFail("serving_point", "order " + std::to_string(o_id) +
                                    " does not hold its seeded values");
  }
}

void CheckJoinRow(const ServingSetup& s, const ServerReply& reply, int region) {
  const TablePtr& t = reply.table;
  const int64_t want_cnt = s.join_count[region];
  if (t == nullptr || t->num_rows() != (want_cnt > 0 ? 1u : 0u)) {
    OracleFail("serving_join", "region r" + std::to_string(region) +
                                   ": wrong row count");
    return;
  }
  if (want_cnt == 0) return;
  const double total = Perturbed("serving_join", t->column(2).GetNumeric(0));
  const double want = s.join_sum[region];
  if (t->column(1).GetBigInt(0) != want_cnt ||
      std::abs(total - want) > 1e-9 * std::max(1.0, std::abs(want))) {
    OracleFail("serving_join", "region r" + std::to_string(region) +
                                   " aggregate disagrees with the generator");
  }
}

}  // namespace

int64_t OrderCustomer(uint64_t seed, int64_t o_id, size_t customers) {
  return static_cast<int64_t>(Mix(seed * 8 + 1, static_cast<uint64_t>(o_id)) %
                              customers);
}
double OrderAmount(uint64_t seed, int64_t o_id) {
  return static_cast<double>(
             Mix(seed * 8 + 2, static_cast<uint64_t>(o_id)) % 1000000) /
         100.0;
}
int64_t OrderStatus(uint64_t seed, int64_t o_id) {
  return static_cast<int64_t>(Mix(seed * 8 + 3, static_cast<uint64_t>(o_id)) %
                              5);
}
int CustomerRegion(uint64_t seed, int64_t c_id) {
  return static_cast<int>(Mix(seed * 8 + 4, static_cast<uint64_t>(c_id)) %
                          kRegions);
}

ServingSetup::~ServingSetup() {
  server.reset();
  engine.reset();
  if (!data_dir.empty()) RemoveTree(data_dir);
}

std::vector<double> WireLatenciesUs(ServingSetup& s, const std::string& sql,
                                    int n) {
  Client client;
  Status st = client.Connect(s.server->port());
  if (!st.ok()) Die("connect", st);
  std::vector<double> us;
  const std::string body = EncodeQuery(sql);
  for (int i = 0; i < n; ++i) {
    const int64_t t0 = NowNs();
    Result<ServerReply> reply = [&] {
      ScopedSpan span("server.roundtrip.rtt", NextStatementId());
      return client.Call(MsgType::kQuery, body);
    }();
    if (!reply.ok()) Die("rtt", reply.status());
    us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
  }
  return us;
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

std::unique_ptr<ServingSetup> SetupServing(const Options& opt,
                                           const std::string& tag) {
  auto s = std::make_unique<ServingSetup>();
  s->opt = opt;
  s->seed = SubSeed(opt.seed, 7);
  s->orders = opt.sizes.orders;
  s->customers = opt.sizes.customers;
  s->data_dir = opt.tmp_dir + "/" + tag;
  RemoveTree(s->data_dir);
  std::error_code ec;
  std::filesystem::create_directories(s->data_dir, ec);
  if (ec) Die("mkdir " + s->data_dir, Status::Internal(ec.message()));

  // Flush policy is fixed: group commit, auto-checkpoint by record count.
  s->engine_options.data_dir = s->data_dir;
  s->engine_options.wal_fsync = WalFsyncMode::kGroup;
  s->engine_options.wal_auto_checkpoint_records =
      opt.sizes.auto_checkpoint_records;
  s->engine = std::make_unique<Engine>(s->engine_options);
  if (!s->engine->startup_status().ok()) {
    Die("open data_dir", s->engine->startup_status());
  }

  std::vector<int64_t> o_id(s->orders), c_id(s->orders), status(s->orders);
  std::vector<double> amount(s->orders);
  std::vector<int64_t> cust_id(s->customers);
  std::vector<std::string> region(s->customers);
  int64_t t0 = NowNs();
  {
    ScopedSpan span("setup.generate");
    for (size_t i = 0; i < s->orders; ++i) {
      const int64_t id = static_cast<int64_t>(i);
      o_id[i] = id;
      c_id[i] = OrderCustomer(s->seed, id, s->customers);
      amount[i] = OrderAmount(s->seed, id);
      status[i] = OrderStatus(s->seed, id);
    }
    for (size_t c = 0; c < s->customers; ++c) {
      cust_id[c] = static_cast<int64_t>(c);
      region[c] = "r" + std::to_string(
                            CustomerRegion(s->seed, static_cast<int64_t>(c)));
    }
  }
  s->generate_s = SecondsSince(t0);

  // Join reference, straight from the generator.
  s->join_count.assign(kRegions, 0);
  s->join_sum.assign(kRegions, 0.0);
  for (size_t i = 0; i < s->orders; ++i) {
    const int r = CustomerRegion(s->seed, c_id[i]);
    ++s->join_count[r];
    s->join_sum[r] += amount[i];
  }

  t0 = NowNs();
  {
    ScopedSpan span("setup.load");
    Catalog& cat = s->engine->catalog();
    TablePtr orders = OrDie(
        cat.CreateTable("orders", Schema({Field("o_id", DataType::kBigInt),
                                          Field("c_id", DataType::kBigInt),
                                          Field("amount", DataType::kDouble),
                                          Field("status", DataType::kBigInt)})),
        "orders");
    Status st = orders->SetColumn(0, Column::FromBigInts(std::move(o_id)));
    if (st.ok()) {
      st = orders->SetColumn(1, Column::FromBigInts(std::move(c_id)));
    }
    if (st.ok()) {
      st = orders->SetColumn(2, Column::FromDoubles(std::move(amount)));
    }
    if (st.ok()) {
      st = orders->SetColumn(3, Column::FromBigInts(std::move(status)));
    }
    if (st.ok()) st = orders->Seal();
    if (!st.ok()) Die("orders load", st);

    TablePtr customers = OrDie(
        cat.CreateTable("customers",
                        Schema({Field("c_id", DataType::kBigInt),
                                Field("region", DataType::kVarchar)})),
        "customers");
    st = customers->SetColumn(0, Column::FromBigInts(std::move(cust_id)));
    if (st.ok()) {
      st = customers->SetColumn(1, Column::FromStrings(std::move(region)));
    }
    if (!st.ok()) Die("customers load", st);

    RunOrDie(*s->engine,
             "CREATE TABLE events (id BIGINT, kind BIGINT, amount DOUBLE)");
    // Bulk-loaded tables bypass the WAL; the checkpoint makes them durable.
    RunOrDie(*s->engine, "CHECKPOINT");
  }
  s->load_s = SecondsSince(t0);

  ServerOptions so;
  so.port = 0;
  s->server = std::make_unique<Server>(s->engine.get(), so);
  Status st = s->server->Start();
  if (!st.ok()) Die("server start", st);
  return s;
}

std::string ServingSql(ServingSetup& s, const std::string& cls, uint64_t r,
                       int64_t* event_id, int* kind) {
  if (cls == "read_adhoc") {
    return "SELECT o_id, c_id, amount, status FROM orders WHERE o_id = " +
           std::to_string(r % s.orders);
  }
  if (cls == "read_join") {
    return "SELECT c.region, count(*) cnt, sum(o.amount) total FROM orders o "
           "JOIN customers c ON o.c_id = c.c_id WHERE c.region = 'r" +
           std::to_string(r % kJoinRegions) + "' GROUP BY c.region";
  }
  if (cls == "read_events") {
    return "SELECT count(*) cnt FROM events WHERE kind = " +
           std::to_string(r % kEventKinds);
  }
  // write
  *event_id = s.next_event_id.fetch_add(1);
  *kind = static_cast<int>(r % kEventKinds);
  char amount[32];
  std::snprintf(amount, sizeof(amount), "%.2f",
                static_cast<double>((r >> 8) % 100000) / 100.0);
  return "INSERT INTO events SELECT " + std::to_string(*event_id) + " id, " +
         std::to_string(*kind) + " kind, " + amount + " amount";
}

ServingStats RunServingLoop(ServingSetup& s, double seconds) {
  std::vector<ServingStats> per_client(kServingClients);
  std::vector<std::string> errors(kServingClients);
  const uint16_t port = s.server->port();
  const int64_t start = NowNs();
  auto client_main = [&](int id) {
    ServingStats& st = per_client[id];
    std::vector<int64_t> acked;
    Client client;
    Status ok = client.Connect(port);
    if (ok.ok()) {
      Result<ServerReply> prep = client.Call(
          MsgType::kPrepare, EncodePrepare("get_order", kPrepareSql));
      ok = !prep.ok() ? prep.status() : prep.ValueOrDie().status;
    }
    if (!ok.ok()) {
      errors[id] = ok.ToString();
      return;
    }
    Rng rng(SubSeed(s.opt.seed, 100 + static_cast<uint64_t>(id)));
    while (SecondsSince(start) < seconds) {
      // No traffic profile exists for this mix, so every class is equally
      // likely: each per-class median then rests on about as many samples.
      const std::string c = kServingClasses[rng.Below(kNumServingClasses)];
      const uint64_t r = rng.Next();
      int64_t event_id = -1;
      int kind = 0;
      MsgType type = MsgType::kQuery;
      std::string body;
      if (c == "read_prepared") {
        type = MsgType::kExecutePrepared;
        body = EncodeExecutePrepared(
            "get_order", {Value::BigInt(static_cast<int64_t>(r % s.orders))});
      } else {
        body = EncodeQuery(ServingSql(s, c, r, &event_id, &kind));
      }
      int64_t acked_before = 0;
      if (c == "read_events") {
        acked_before = s.events_acked[r % kEventKinds].load();
      } else if (c == "write") {
        s.events_sent[kind].fetch_add(1);
      }

      ++st.attempted;
      const int64_t t0 = NowNs();
      Result<ServerReply> reply = [&] {
        ScopedSpan span("server.roundtrip." + c, NextStatementId());
        return client.Call(type, body);
      }();
      const double ms = static_cast<double>(NowNs() - t0) / 1e6;
      if (!reply.ok()) {
        errors[id] = reply.status().ToString();
        ++st.failed;
        break;  // the connection is gone
      }
      const ServerReply& rep = reply.ValueOrDie();
      if (rep.type == MsgType::kError) {
        ++st.failed;
        if (rep.retry_after_ms >= 0) ++st.shed;
        if (errors[id].empty()) errors[id] = rep.status.ToString();
        continue;
      }
      st.latency_ms[c].push_back(ms);
      if (c == "read_adhoc" || c == "read_prepared") {
        CheckOrderRow(s, rep, static_cast<int64_t>(r % s.orders));
      } else if (c == "read_join") {
        CheckJoinRow(s, rep, static_cast<int>(r % kJoinRegions));
      } else if (c == "read_events") {
        const int k = static_cast<int>(r % kEventKinds);
        const int64_t sent_after = s.events_sent[k].load();
        int64_t cnt = rep.table && rep.table->num_rows() == 1
                          ? rep.table->column(0).GetBigInt(0)
                          : -1;
        if (Perturbed("serving_events", 0.0) != 0.0) cnt += sent_after + 1;
        if (cnt < acked_before || cnt > sent_after) {
          OracleFail("serving_events",
                     "count(kind=" + std::to_string(k) + ") = " +
                         std::to_string(cnt) + " outside [" +
                         std::to_string(acked_before) + ", " +
                         std::to_string(sent_after) + "]");
        }
      } else {
        s.events_acked[kind].fetch_add(1);
        acked.push_back(event_id);
      }
    }
    std::lock_guard<std::mutex> lock(s.acked_mu);
    s.acked_ids.insert(s.acked_ids.end(), acked.begin(), acked.end());
  };
  std::vector<std::thread> threads;
  for (int i = 0; i < kServingClients; ++i) {
    threads.emplace_back(client_main, i);
  }
  for (std::thread& t : threads) t.join();

  ServingStats out;
  out.elapsed_s = SecondsSince(start);
  for (int i = 0; i < kServingClients; ++i) {
    if (!errors[i].empty()) {
      std::fprintf(stderr, "client %d: %s\n", i, errors[i].c_str());
    }
    const ServingStats& st = per_client[i];
    out.attempted += st.attempted;
    out.failed += st.failed;
    out.shed += st.shed;
    for (const auto& [cls, v] : st.latency_ms) {
      auto& dst = out.latency_ms[cls];
      dst.insert(dst.end(), v.begin(), v.end());
    }
  }
  // A client that could not connect attempted nothing but still failed.
  for (int i = 0; i < kServingClients; ++i) {
    if (per_client[i].attempted == 0 && !errors[i].empty()) {
      ++out.attempted;
      ++out.failed;
    }
  }
  return out;
}

double ReopenAndVerify(ServingSetup& s) {
  if (s.server) {
    Status st = s.server->Shutdown();
    if (!st.ok()) Die("server shutdown", st);
    s.server.reset();
  }
  s.engine.reset();
  const int64_t t0 = NowNs();
  auto engine = std::make_unique<Engine>(s.engine_options);
  const double recovery_s = SecondsSince(t0);
  Result<QueryResult> r = engine->Execute("SELECT id FROM events ORDER BY id");
  if (!r.ok()) {
    OracleFail("serving_recovery", "reopen failed: " + r.status().ToString());
    return recovery_s;
  }
  std::vector<int64_t> recovered;
  const QueryResult& q = r.ValueOrDie();
  for (size_t i = 0; i < q.num_rows(); ++i) recovered.push_back(q.GetInt(i, 0));
  if (Perturbed("serving_recovery", 0.0) != 0.0 && !recovered.empty()) {
    recovered.pop_back();
  }
  std::vector<int64_t> acked = s.acked_ids;
  std::sort(acked.begin(), acked.end());
  const int64_t sent = s.next_event_id.load();
  // Every acknowledged insert is back, exactly once; nothing else but
  // (unacknowledged) ids the clients actually sent.
  if (std::adjacent_find(recovered.begin(), recovered.end()) !=
      recovered.end()) {
    OracleFail("serving_recovery", "duplicate event ids after recovery");
  }
  if (!std::includes(recovered.begin(), recovered.end(), acked.begin(),
                     acked.end())) {
    OracleFail("serving_recovery",
               std::to_string(acked.size()) + " acknowledged inserts, " +
                   std::to_string(recovered.size()) + " recovered");
  }
  if (!recovered.empty() &&
      (recovered.front() < 0 || recovered.back() >= sent)) {
    OracleFail("serving_recovery", "recovered an event id never sent");
  }
  // A sample of sealed orders survived the checkpoint round trip.
  for (int64_t k = 0; k < 8; ++k) {
    const int64_t o_id =
        static_cast<int64_t>(Mix(s.seed, 1000 + k) % s.orders);
    Result<QueryResult> o = engine->Execute(
        "SELECT o_id, c_id, amount, status FROM orders WHERE o_id = " +
        std::to_string(o_id));
    if (!o.ok()) {
      OracleFail("serving_recovery", o.status().ToString());
      break;
    }
    ServerReply rep;
    rep.table = o.ValueOrDie().table();
    CheckOrderRow(s, rep, o_id);
  }
  s.engine = std::move(engine);
  return recovery_s;
}

}  // namespace soda::perfbench
