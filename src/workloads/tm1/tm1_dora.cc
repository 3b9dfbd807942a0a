// DORA (thread-to-data) implementations of the seven TM1 transactions.
// Record accesses inside actions use AccessOptions::NoCc() — isolation
// comes from the owning executor's thread-local locks; inserts/deletes take
// only the centralized RID lock (§4.2.1). The sub_nbr index is the
// non-routing-aligned path: probes to it run as secondary actions on the
// dispatcher, using the routing field stored in each leaf entry (§4.2.2).

#include "workloads/common/driver.h"
#include "workloads/tm1/tm1.h"

namespace doradb {
namespace tm1 {

namespace {
constexpr AccessOptions kNoCc = AccessOptions{false, false};
constexpr AccessOptions kRid = AccessOptions{false, true};
}  // namespace

void Tm1Workload::SetupDora(dora::DoraEngine* engine) {
  const uint64_t space = config_.subscribers + 1;
  engine->RegisterTable(schema_.subscriber, space,
                        config_.executors_per_table);
  engine->RegisterTable(schema_.access_info, space,
                        config_.executors_per_table);
  engine->RegisterTable(schema_.special_facility, space,
                        config_.executors_per_table);
  engine->RegisterTable(schema_.call_forwarding, space,
                        config_.executors_per_table);
}

Status Tm1Workload::DoraGetSubscriberData(dora::DoraEngine* e, Rng& rng) {
  const uint64_t s_id = RandomSid(rng);
  auto dtxn = e->BeginTxn();
  dora::FlowGraph g;
  g.AddPhase().AddAction(
      schema_.subscriber, s_id, dora::LocalMode::kS,
      [this, s_id](dora::ActionEnv& env) -> Status {
        IndexEntry ie;
        DORADB_RETURN_NOT_OK(
            env.Probe(schema_.sub_pk, Schema::SubKey(s_id), &ie));
        std::string bytes;
        DORADB_RETURN_NOT_OK(
            env.db->Read(env.txn, schema_.subscriber, ie.rid, &bytes, kNoCc));
        if (config_.trace_subscriber_accesses) {
          AccessTrace::Record(schema_.subscriber, s_id);
        }
        return Status::OK();
      });
  return e->Run(dtxn, std::move(g));
}

Status Tm1Workload::DoraGetNewDestination(dora::DoraEngine* e, Rng& rng) {
  const uint64_t s_id = RandomSid(rng);
  const uint8_t sf_type =
      static_cast<uint8_t>(rng.UniformInt(uint64_t{1}, uint64_t{4}));
  const uint8_t start_time =
      static_cast<uint8_t>(rng.UniformInt(uint64_t{0}, uint64_t{2}) * 8);
  const uint8_t end_time =
      static_cast<uint8_t>(rng.UniformInt(uint64_t{1}, uint64_t{24}));

  struct State {
    std::atomic<bool> sf_active{false};
    std::atomic<bool> cf_found{false};
  };
  auto st = std::make_shared<State>();

  auto dtxn = e->BeginTxn();
  dora::FlowGraph g;
  g.AddPhase()
      .AddAction(schema_.special_facility, s_id, dora::LocalMode::kS,
                 [this, s_id, sf_type, st](dora::ActionEnv& env) -> Status {
                   IndexEntry ie;
                   const Status ps =
                       env.Probe(schema_.sf_pk,
                                 Schema::SfKey(s_id, sf_type), &ie);
                   if (!ps.ok()) return Status::OK();  // decided client-side
                   std::string bytes;
                   DORADB_RETURN_NOT_OK(env.db->Read(
                       env.txn, schema_.special_facility, ie.rid, &bytes,
                       kNoCc));
                   st->sf_active =
                       FromBytes<SpecialFacilityRow>(bytes).is_active != 0;
                   return Status::OK();
                 })
      .AddAction(
          schema_.call_forwarding, s_id, dora::LocalMode::kS,
          [this, s_id, sf_type, start_time, end_time,
           st](dora::ActionEnv& env) -> Status {
            std::vector<IndexEntry> cfs;
            DORADB_RETURN_NOT_OK(
                db_->catalog()
                    ->Index(schema_.cf_pk)
                    ->ScanPrefix(Schema::CfPrefix(s_id, sf_type),
                                 [&](std::string_view, const IndexEntry& e2) {
                                   cfs.push_back(e2);
                                   return true;
                                 }));
            for (const auto& ie : cfs) {
              std::string bytes;
              DORADB_RETURN_NOT_OK(env.db->Read(
                  env.txn, schema_.call_forwarding, ie.rid, &bytes, kNoCc));
              const auto cf = FromBytes<CallForwardingRow>(bytes);
              if (cf.start_time <= start_time && end_time < cf.end_time) {
                st->cf_found = true;
                break;
              }
            }
            return Status::OK();
          });
  DORADB_RETURN_NOT_OK(e->Run(dtxn, std::move(g)));
  if (!st->sf_active.load() || !st->cf_found.load()) {
    return Status::NotFound("no destination");  // user-level failure
  }
  return Status::OK();
}

Status Tm1Workload::DoraGetAccessData(dora::DoraEngine* e, Rng& rng) {
  const uint64_t s_id = RandomSid(rng);
  const uint8_t ai_type =
      static_cast<uint8_t>(rng.UniformInt(uint64_t{1}, uint64_t{4}));
  auto dtxn = e->BeginTxn();
  dora::FlowGraph g;
  g.AddPhase().AddAction(
      schema_.access_info, s_id, dora::LocalMode::kS,
      [this, s_id, ai_type](dora::ActionEnv& env) -> Status {
        IndexEntry ie;
        DORADB_RETURN_NOT_OK(
            env.Probe(schema_.ai_pk, Schema::AiKey(s_id, ai_type), &ie));
        std::string bytes;
        return env.db->Read(env.txn, schema_.access_info, ie.rid, &bytes,
                            kNoCc);
      });
  return e->Run(dtxn, std::move(g));
}

Status Tm1Workload::DoraUpdateSubscriberData(dora::DoraEngine* e, Rng& rng) {
  const uint64_t s_id = RandomSid(rng);
  const uint8_t sf_type =
      static_cast<uint8_t>(rng.UniformInt(uint64_t{1}, uint64_t{4}));
  const uint8_t bit = rng.Percent(50) ? 1 : 0;
  const uint8_t data_a =
      static_cast<uint8_t>(rng.UniformInt(uint64_t{0}, uint64_t{255}));

  auto dtxn = e->BeginTxn();
  dora::FlowGraph g;
  g.AddPhase();
  // SpecialFacility first: under the serial plan (DORA-S) this runs first
  // and aborts cheaply before any Subscriber work is wasted (§A.4, Fig 11).
  g.AddAction(schema_.special_facility, s_id, dora::LocalMode::kX,
              [this, s_id, sf_type, data_a](dora::ActionEnv& env) -> Status {
                IndexEntry ie;
                DORADB_RETURN_NOT_OK(env.Probe(
                    schema_.sf_pk, Schema::SfKey(s_id, sf_type), &ie));
                std::string bytes;
                DORADB_RETURN_NOT_OK(env.db->Read(
                    env.txn, schema_.special_facility, ie.rid, &bytes,
                    kNoCc));
                auto sf = FromBytes<SpecialFacilityRow>(bytes);
                sf.data_a = data_a;
                return env.db->Update(env.txn, schema_.special_facility,
                                      ie.rid, AsBytes(sf), kNoCc);
              });
  g.AddAction(schema_.subscriber, s_id, dora::LocalMode::kX,
              [this, s_id, bit](dora::ActionEnv& env) -> Status {
                IndexEntry ie;
                DORADB_RETURN_NOT_OK(
                    env.Probe(schema_.sub_pk, Schema::SubKey(s_id), &ie));
                std::string bytes;
                DORADB_RETURN_NOT_OK(env.db->Read(
                    env.txn, schema_.subscriber, ie.rid, &bytes, kNoCc));
                auto sub = FromBytes<SubscriberRow>(bytes);
                sub.bits = static_cast<uint16_t>((sub.bits & ~1u) | bit);
                if (config_.trace_subscriber_accesses) {
                  AccessTrace::Record(schema_.subscriber, s_id);
                }
                return env.db->Update(env.txn, schema_.subscriber, ie.rid,
                                      AsBytes(sub), kNoCc);
              });

  const bool serial =
      plan_mode_ == PlanMode::kSerial ||
      (plan_mode_ == PlanMode::kAuto &&
       advisor_.RecommendSerial(kUpdateSubscriberData));
  const Status s = e->Run(
      dtxn, serial ? std::move(g).Serialized() : std::move(g));
  if (plan_mode_ == PlanMode::kAuto) {
    advisor_.RecordOutcome(kUpdateSubscriberData, !s.ok());
  }
  return s;
}

Status Tm1Workload::DoraUpdateLocation(dora::DoraEngine* e, Rng& rng) {
  char sub_nbr[16];
  {
    uint64_t v = RandomSid(rng);
    for (int i = 14; i >= 0; --i) {
      sub_nbr[i] = static_cast<char>('0' + v % 10);
      v /= 10;
    }
    sub_nbr[15] = '\0';
  }
  const uint32_t new_vlr = static_cast<uint32_t>(rng.Next());

  // Secondary action (§4.2.2): the dispatcher probes the non-routing
  // sub_nbr index; the leaf entry's aux carries the routing field (s_id),
  // which determines the owning executor for the record access.
  IndexEntry ie;
  DORADB_RETURN_NOT_OK(db_->catalog()->Index(schema_.sub_nbr_idx)
                           ->Probe(Schema::SubNbrKey(sub_nbr), &ie));
  const uint64_t s_id = ie.aux;
  const Rid rid = ie.rid;

  auto dtxn = e->BeginTxn();
  dora::FlowGraph g;
  g.AddPhase().AddAction(
      schema_.subscriber, s_id, dora::LocalMode::kX,
      [this, rid, s_id, new_vlr](dora::ActionEnv& env) -> Status {
        std::string bytes;
        DORADB_RETURN_NOT_OK(
            env.db->Read(env.txn, schema_.subscriber, rid, &bytes, kNoCc));
        auto sub = FromBytes<SubscriberRow>(bytes);
        sub.vlr_location = new_vlr;
        if (config_.trace_subscriber_accesses) {
          AccessTrace::Record(schema_.subscriber, s_id);
        }
        return env.db->Update(env.txn, schema_.subscriber, rid, AsBytes(sub),
                              kNoCc);
      });
  return e->Run(dtxn, std::move(g));
}

Status Tm1Workload::DoraInsertCallForwarding(dora::DoraEngine* e, Rng& rng) {
  const uint64_t s_id = RandomSid(rng);
  const uint8_t sf_type =
      static_cast<uint8_t>(rng.UniformInt(uint64_t{1}, uint64_t{4}));
  const uint8_t start_time =
      static_cast<uint8_t>(rng.UniformInt(uint64_t{0}, uint64_t{2}) * 8);
  const uint8_t end_time = static_cast<uint8_t>(
      start_time + rng.UniformInt(uint64_t{1}, uint64_t{8}));

  auto dtxn = e->BeginTxn();
  dora::FlowGraph g;
  // Phase 1: the special facility must exist (read-only check).
  g.AddPhase().AddAction(
      schema_.special_facility, s_id, dora::LocalMode::kS,
      [this, s_id, sf_type](dora::ActionEnv& env) -> Status {
        IndexEntry ie;
        DORADB_RETURN_NOT_OK(
            env.Probe(schema_.sf_pk, Schema::SfKey(s_id, sf_type), &ie));
        std::string bytes;
        return env.db->Read(env.txn, schema_.special_facility, ie.rid,
                            &bytes, kNoCc);
      });
  // Phase 2 (after the RVP): insert the call forwarding. The insert takes
  // the centralized RID lock — the only lock manager interaction (§4.2.1).
  g.AddPhase().AddAction(
      schema_.call_forwarding, s_id, dora::LocalMode::kX,
      [this, s_id, sf_type, start_time,
       end_time](dora::ActionEnv& env) -> Status {
        CallForwardingRow cf{};
        cf.s_id = s_id;
        cf.sf_type = sf_type;
        cf.start_time = start_time;
        cf.end_time = end_time;
        std::memcpy(cf.numberx, "000000000000000", 16);
        Rid rid;
        DORADB_RETURN_NOT_OK(env.db->Insert(env.txn, schema_.call_forwarding,
                                            AsBytes(cf), &rid, kRid));
        return env.db->IndexInsert(env.txn, schema_.cf_pk,
                                   Schema::CfKey(s_id, sf_type, start_time),
                                   IndexEntry{rid, s_id, false});
      });
  return e->Run(dtxn, std::move(g));
}

Status Tm1Workload::DoraDeleteCallForwarding(dora::DoraEngine* e, Rng& rng) {
  const uint64_t s_id = RandomSid(rng);
  const uint8_t sf_type =
      static_cast<uint8_t>(rng.UniformInt(uint64_t{1}, uint64_t{4}));
  const uint8_t start_time =
      static_cast<uint8_t>(rng.UniformInt(uint64_t{0}, uint64_t{2}) * 8);

  auto dtxn = e->BeginTxn();
  dora::FlowGraph g;
  g.AddPhase().AddAction(
      schema_.call_forwarding, s_id, dora::LocalMode::kX,
      [this, s_id, sf_type, start_time](dora::ActionEnv& env) -> Status {
        IndexEntry ie;
        DORADB_RETURN_NOT_OK(env.Probe(
            schema_.cf_pk, Schema::CfKey(s_id, sf_type, start_time), &ie));
        DORADB_RETURN_NOT_OK(
            env.db->Delete(env.txn, schema_.call_forwarding, ie.rid, kRid));
        return env.db->IndexRemove(env.txn, schema_.cf_pk,
                                   Schema::CfKey(s_id, sf_type, start_time),
                                   ie.rid, s_id);
      });
  return e->Run(dtxn, std::move(g));
}

}  // namespace tm1
}  // namespace doradb
