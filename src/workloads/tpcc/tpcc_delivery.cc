// TPC-C Delivery and StockLevel — the remaining two transactions of the
// full mix (deferred-execution and read-heavy decision-support styles).
//
// Both DORA variants span several phases while holding earlier-phase local
// locks, so they can form cross-graph waits with NewOrder/OrderStatus; the
// executors' parked-action expiration (the paper's §4.2.3 "propagate local
// waits to the deadlock detector") resolves any such cycle by aborting a
// participant, which the driver counts as a system abort.

#include "workloads/tpcc/tpcc.h"

namespace doradb {
namespace tpcc {

namespace {
constexpr AccessOptions kCc = AccessOptions{true, false};
constexpr AccessOptions kNoCc = AccessOptions{false, false};
constexpr AccessOptions kRid = AccessOptions{false, true};
}  // namespace

Status TpccWorkload::OldestNewOrder(uint32_t w, uint8_t d, uint32_t* o_id) {
  // no_pk keys are (w, d, o) big-endian: the first entry in the prefix
  // range is the minimum order id.
  bool found = false;
  KeyBuilder prefix;
  prefix.Add32(w).Add8(d);
  DORADB_RETURN_NOT_OK(
      db_->catalog()
          ->Index(schema_.no_pk)
          ->ScanPrefix(prefix.View(),
                       [&](std::string_view key, const IndexEntry&) {
                         uint32_t o = 0;
                         for (int i = 0; i < 4; ++i) {
                           o = (o << 8) |
                               static_cast<uint8_t>(key[key.size() - 4 + i]);
                         }
                         *o_id = o;
                         found = true;
                         return false;  // first = oldest
                       }));
  return found ? Status::OK() : Status::NotFound("no pending orders");
}

// ------------------------------------------------------------- Delivery

Status TpccWorkload::BaseDelivery(Rng& rng) {
  const uint32_t w_id =
      static_cast<uint32_t>(rng.UniformInt(uint64_t{1}, config_.warehouses));
  const uint32_t carrier =
      static_cast<uint32_t>(rng.UniformInt(uint64_t{1}, uint64_t{10}));
  auto txn = db_->Begin();
  Status s = [&]() -> Status {
    ScopedTimeClass work(TimeClass::kWork);
    Catalog* cat = db_->catalog();
    for (uint8_t d = 1; d <= config_.districts; ++d) {
      uint32_t o_id;
      if (OldestNewOrder(w_id, d, &o_id).IsNotFound()) continue;  // skip
      // Consume the NewOrder row.
      IndexEntry no_ie;
      DORADB_RETURN_NOT_OK(cat->Index(schema_.no_pk)
                               ->Probe(Schema::NoKey(w_id, d, o_id), &no_ie));
      DORADB_RETURN_NOT_OK(
          db_->Delete(txn.get(), schema_.new_order, no_ie.rid, kCc));
      DORADB_RETURN_NOT_OK(db_->IndexRemove(txn.get(), schema_.no_pk,
                                            Schema::NoKey(w_id, d, o_id),
                                            no_ie.rid, w_id));
      // Stamp the carrier on the order.
      IndexEntry or_ie;
      DORADB_RETURN_NOT_OK(cat->Index(schema_.or_pk)
                               ->Probe(Schema::OrKey(w_id, d, o_id), &or_ie));
      std::string bytes;
      DORADB_RETURN_NOT_OK(
          db_->Read(txn.get(), schema_.order, or_ie.rid, &bytes, kCc));
      auto ord = FromBytes<OrderRow>(bytes);
      ord.carrier_id = carrier;
      DORADB_RETURN_NOT_OK(
          db_->Update(txn.get(), schema_.order, or_ie.rid, AsBytes(ord), kCc));
      // Deliver the lines, summing amounts.
      int64_t total = 0;
      std::vector<IndexEntry> lines;
      DORADB_RETURN_NOT_OK(
          cat->Index(schema_.ol_pk)
              ->ScanPrefix(Schema::OlPrefix(w_id, d, o_id),
                           [&](std::string_view, const IndexEntry& e) {
                             lines.push_back(e);
                             return true;
                           }));
      for (const auto& e : lines) {
        DORADB_RETURN_NOT_OK(
            db_->Read(txn.get(), schema_.order_line, e.rid, &bytes, kCc));
        auto line = FromBytes<OrderLineRow>(bytes);
        line.delivery_d = 1;
        total += line.amount;
        DORADB_RETURN_NOT_OK(db_->Update(txn.get(), schema_.order_line,
                                         e.rid, AsBytes(line), kCc));
      }
      // Credit the customer.
      IndexEntry cu_ie;
      DORADB_RETURN_NOT_OK(
          cat->Index(schema_.cu_pk)
              ->Probe(Schema::CuKey(w_id, d, ord.c_id), &cu_ie));
      DORADB_RETURN_NOT_OK(
          db_->Read(txn.get(), schema_.customer, cu_ie.rid, &bytes, kCc));
      auto cu = FromBytes<CustomerRow>(bytes);
      cu.balance += total;
      cu.delivery_cnt++;
      DORADB_RETURN_NOT_OK(db_->Update(txn.get(), schema_.customer, cu_ie.rid,
                                       AsBytes(cu), kCc));
    }
    return Status::OK();
  }();
  if (s.ok()) return db_->Commit(txn.get());
  (void)db_->Abort(txn.get());
  return s;
}

Status TpccWorkload::DoraDelivery(dora::DoraEngine* e, Rng& rng) {
  const uint32_t w_id =
      static_cast<uint32_t>(rng.UniformInt(uint64_t{1}, config_.warehouses));
  const uint32_t carrier =
      static_cast<uint32_t>(rng.UniformInt(uint64_t{1}, uint64_t{10}));

  struct State {
    // Per district: delivered order id (0 = none), customer, line total.
    std::array<std::atomic<uint32_t>, 11> o_id{};
    std::array<std::atomic<uint32_t>, 11> c_id{};
    std::array<std::atomic<int64_t>, 11> total{};
  };
  auto st = std::make_shared<State>();
  const uint8_t districts = config_.districts;

  auto dtxn = e->BeginTxn();
  dora::FlowGraph g;
  // Phase 1: consume the oldest NewOrder of every district.
  g.AddPhase().AddAction(
      schema_.new_order, w_id, dora::LocalMode::kX,
      [this, w_id, districts, st](dora::ActionEnv& env) -> Status {
        for (uint8_t d = 1; d <= districts; ++d) {
          uint32_t o_id;
          if (OldestNewOrder(w_id, d, &o_id).IsNotFound()) continue;
          IndexEntry ie;
          DORADB_RETURN_NOT_OK(env.Probe(
              schema_.no_pk, Schema::NoKey(w_id, d, o_id), &ie));
          DORADB_RETURN_NOT_OK(
              env.db->Delete(env.txn, schema_.new_order, ie.rid, kRid));
          DORADB_RETURN_NOT_OK(env.db->IndexRemove(
              env.txn, schema_.no_pk, Schema::NoKey(w_id, d, o_id), ie.rid,
              w_id));
          st->o_id[d].store(o_id, std::memory_order_relaxed);
        }
        return Status::OK();
      });
  // Phase 2: order carrier stamps + order-line delivery, one action per
  // table (atomically enqueued together to keep {OR, OL} ordering
  // consistent with NewOrder's and OrderStatus's batches).
  g.AddPhase()
      .AddAction(schema_.order, w_id, dora::LocalMode::kX,
                 [this, w_id, districts, carrier,
                  st](dora::ActionEnv& env) -> Status {
                   for (uint8_t d = 1; d <= districts; ++d) {
                     const uint32_t o_id =
                         st->o_id[d].load(std::memory_order_relaxed);
                     if (o_id == 0) continue;
                     IndexEntry ie;
                     DORADB_RETURN_NOT_OK(env.Probe(
                         schema_.or_pk, Schema::OrKey(w_id, d, o_id), &ie));
                     std::string bytes;
                     DORADB_RETURN_NOT_OK(env.db->Read(
                         env.txn, schema_.order, ie.rid, &bytes, kNoCc));
                     auto ord = FromBytes<OrderRow>(bytes);
                     ord.carrier_id = carrier;
                     st->c_id[d].store(ord.c_id, std::memory_order_relaxed);
                     DORADB_RETURN_NOT_OK(
                         env.db->Update(env.txn, schema_.order, ie.rid,
                                        AsBytes(ord), kNoCc));
                   }
                   return Status::OK();
                 })
      .AddAction(schema_.order_line, w_id, dora::LocalMode::kX,
                 [this, w_id, districts, st](dora::ActionEnv& env) -> Status {
                   for (uint8_t d = 1; d <= districts; ++d) {
                     const uint32_t o_id =
                         st->o_id[d].load(std::memory_order_relaxed);
                     if (o_id == 0) continue;
                     std::vector<IndexEntry> lines;
                     DORADB_RETURN_NOT_OK(
                         db_->catalog()->Index(schema_.ol_pk)
                             ->ScanPrefix(
                                 Schema::OlPrefix(w_id, d, o_id),
                                 [&](std::string_view, const IndexEntry& le) {
                                   lines.push_back(le);
                                   return true;
                                 }));
                     int64_t total = 0;
                     for (const auto& le : lines) {
                       std::string bytes;
                       DORADB_RETURN_NOT_OK(env.db->Read(
                           env.txn, schema_.order_line, le.rid, &bytes,
                           kNoCc));
                       auto line = FromBytes<OrderLineRow>(bytes);
                       line.delivery_d = 1;
                       total += line.amount;
                       DORADB_RETURN_NOT_OK(
                           env.db->Update(env.txn, schema_.order_line,
                                          le.rid, AsBytes(line), kNoCc));
                     }
                     st->total[d].store(total, std::memory_order_relaxed);
                   }
                   return Status::OK();
                 });
  // Phase 3: credit the customers.
  g.AddPhase().AddAction(
      schema_.customer, w_id, dora::LocalMode::kX,
      [this, w_id, districts, st](dora::ActionEnv& env) -> Status {
        for (uint8_t d = 1; d <= districts; ++d) {
          const uint32_t o_id = st->o_id[d].load(std::memory_order_relaxed);
          if (o_id == 0) continue;
          IndexEntry ie;
          DORADB_RETURN_NOT_OK(env.Probe(
              schema_.cu_pk,
              Schema::CuKey(w_id, d,
                            st->c_id[d].load(std::memory_order_relaxed)),
              &ie));
          std::string bytes;
          DORADB_RETURN_NOT_OK(env.db->Read(env.txn, schema_.customer,
                                            ie.rid, &bytes, kNoCc));
          auto cu = FromBytes<CustomerRow>(bytes);
          cu.balance += st->total[d].load(std::memory_order_relaxed);
          cu.delivery_cnt++;
          DORADB_RETURN_NOT_OK(env.db->Update(env.txn, schema_.customer,
                                              ie.rid, AsBytes(cu), kNoCc));
        }
        return Status::OK();
      });
  return e->Run(dtxn, std::move(g));
}

// ------------------------------------------------------------ StockLevel

Status TpccWorkload::BaseStockLevel(Rng& rng) {
  const uint32_t w_id =
      static_cast<uint32_t>(rng.UniformInt(uint64_t{1}, config_.warehouses));
  const uint8_t d_id =
      static_cast<uint8_t>(rng.UniformInt(uint64_t{1}, config_.districts));
  const int32_t threshold =
      static_cast<int32_t>(rng.UniformInt(uint64_t{10}, uint64_t{20}));
  auto txn = db_->Begin();
  Status s = [&]() -> Status {
    ScopedTimeClass work(TimeClass::kWork);
    Catalog* cat = db_->catalog();
    IndexEntry ie;
    DORADB_RETURN_NOT_OK(
        cat->Index(schema_.di_pk)->Probe(Schema::DiKey(w_id, d_id), &ie));
    std::string bytes;
    DORADB_RETURN_NOT_OK(
        db_->Read(txn.get(), schema_.district, ie.rid, &bytes, kCc));
    const uint32_t next_o = FromBytes<DistrictRow>(bytes).next_o_id;
    const uint32_t from = next_o > 20 ? next_o - 20 : 1;
    // Distinct items in the last 20 orders' lines.
    std::vector<uint32_t> items;
    for (uint32_t o = from; o < next_o; ++o) {
      std::vector<IndexEntry> lines;
      DORADB_RETURN_NOT_OK(
          cat->Index(schema_.ol_pk)
              ->ScanPrefix(Schema::OlPrefix(w_id, d_id, o),
                           [&](std::string_view, const IndexEntry& e) {
                             lines.push_back(e);
                             return true;
                           }));
      for (const auto& e : lines) {
        DORADB_RETURN_NOT_OK(
            db_->Read(txn.get(), schema_.order_line, e.rid, &bytes, kCc));
        items.push_back(FromBytes<OrderLineRow>(bytes).i_id);
      }
    }
    std::sort(items.begin(), items.end());
    items.erase(std::unique(items.begin(), items.end()), items.end());
    int low = 0;
    for (uint32_t i_id : items) {
      IndexEntry st_ie;
      DORADB_RETURN_NOT_OK(cat->Index(schema_.st_pk)
                               ->Probe(Schema::StKey(w_id, i_id), &st_ie));
      DORADB_RETURN_NOT_OK(
          db_->Read(txn.get(), schema_.stock, st_ie.rid, &bytes, kCc));
      if (FromBytes<StockRow>(bytes).quantity < threshold) ++low;
    }
    return Status::OK();
  }();
  if (s.ok()) return db_->Commit(txn.get());
  (void)db_->Abort(txn.get());
  return s;
}

Status TpccWorkload::DoraStockLevel(dora::DoraEngine* e, Rng& rng) {
  const uint32_t w_id =
      static_cast<uint32_t>(rng.UniformInt(uint64_t{1}, config_.warehouses));
  const uint8_t d_id =
      static_cast<uint8_t>(rng.UniformInt(uint64_t{1}, config_.districts));
  const int32_t threshold =
      static_cast<int32_t>(rng.UniformInt(uint64_t{10}, uint64_t{20}));

  struct State {
    std::atomic<uint32_t> next_o{0};
    std::mutex mu;
    std::vector<uint32_t> items;
  };
  auto st = std::make_shared<State>();

  auto dtxn = e->BeginTxn();
  dora::FlowGraph g;
  g.AddPhase().AddAction(
      schema_.district, w_id, dora::LocalMode::kS,
      [this, w_id, d_id, st](dora::ActionEnv& env) -> Status {
        IndexEntry ie;
        DORADB_RETURN_NOT_OK(
            env.Probe(schema_.di_pk, Schema::DiKey(w_id, d_id), &ie));
        std::string bytes;
        DORADB_RETURN_NOT_OK(env.db->Read(env.txn, schema_.district, ie.rid,
                                          &bytes, kNoCc));
        st->next_o.store(FromBytes<DistrictRow>(bytes).next_o_id,
                         std::memory_order_relaxed);
        return Status::OK();
      });
  g.AddPhase().AddAction(
      schema_.order_line, w_id, dora::LocalMode::kS,
      [this, w_id, d_id, st](dora::ActionEnv& env) -> Status {
        const uint32_t next_o = st->next_o.load(std::memory_order_relaxed);
        const uint32_t from = next_o > 20 ? next_o - 20 : 1;
        for (uint32_t o = from; o < next_o; ++o) {
          std::vector<IndexEntry> lines;
          DORADB_RETURN_NOT_OK(
              db_->catalog()->Index(schema_.ol_pk)
                  ->ScanPrefix(Schema::OlPrefix(w_id, d_id, o),
                               [&](std::string_view, const IndexEntry& le) {
                                 lines.push_back(le);
                                 return true;
                               }));
          for (const auto& le : lines) {
            std::string bytes;
            DORADB_RETURN_NOT_OK(env.db->Read(env.txn, schema_.order_line,
                                              le.rid, &bytes, kNoCc));
            st->items.push_back(FromBytes<OrderLineRow>(bytes).i_id);
          }
        }
        std::sort(st->items.begin(), st->items.end());
        st->items.erase(std::unique(st->items.begin(), st->items.end()),
                        st->items.end());
        return Status::OK();
      });
  g.AddPhase().AddAction(
      schema_.stock, w_id, dora::LocalMode::kS,
      [this, w_id, threshold, st](dora::ActionEnv& env) -> Status {
        int low = 0;
        for (uint32_t i_id : st->items) {
          IndexEntry ie;
          DORADB_RETURN_NOT_OK(
              env.Probe(schema_.st_pk, Schema::StKey(w_id, i_id), &ie));
          std::string bytes;
          DORADB_RETURN_NOT_OK(env.db->Read(env.txn, schema_.stock, ie.rid,
                                            &bytes, kNoCc));
          if (FromBytes<StockRow>(bytes).quantity < threshold) ++low;
        }
        return Status::OK();
      });
  return e->Run(dtxn, std::move(g));
}

}  // namespace tpcc
}  // namespace doradb
