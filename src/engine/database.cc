#include "engine/database.h"

#include "obs/health.h"
#include "obs/trace.h"
#include "obs/watchdog.h"
#include "plog/partitioned_log_manager.h"
#include "util/clock.h"

namespace doradb {

namespace {
std::unique_ptr<LogBackend> MakeLogBackend(const Database::Options& options) {
  if (options.log_backend == LogBackendKind::kPartitioned) {
    plog::PartitionedLogManager::Options po;
    po.num_partitions = options.log_partitions;
    po.log = options.log;
    po.data_dir = options.data_dir;
    po.segment_target_bytes = options.log_segment_bytes;
    return std::make_unique<plog::PartitionedLogManager>(po);
  }
  LogManager::Options lo = options.log;
  lo.data_dir = options.data_dir;
  lo.segment_target_bytes = options.log_segment_bytes;
  return std::make_unique<LogManager>(lo);
}
}  // namespace

Database::Options Database::ResetHealthThenPass(Options options) {
  obs::EngineHealth::Default().Reset();
  return options;
}

Database::Database(Options options)
    : options_(ResetHealthThenPass(options)),
      disk_(std::make_unique<DiskManager>(options.data_dir)),
      pool_(std::make_unique<BufferPool>(disk_.get(), options.buffer_frames)),
      catalog_(std::make_unique<Catalog>(pool_.get())),
      lock_(std::make_unique<LockManager>(options.lock)),
      log_(MakeLogBackend(options)),
      txns_(std::make_unique<TxnManager>(lock_.get(), log_.get())),
      ckpt_(std::make_unique<ckpt::CheckpointCoordinator>(
          pool_.get(), log_.get(), txns_.get(), options.checkpoint)) {
  // Reopen ordering hazard: recovered log records can reference pages the
  // dead lifetime allocated but never flushed (they sit beyond pages.db
  // EOF). Raise the allocator past every such id NOW — before application
  // code runs — or schema setup (eager B+Tree roots) would be handed a
  // logged page id and redo would clobber it.
  const PageId recovered_pid = log_->recovered_max_page_id();
  if (recovered_pid != kInvalidPageId) {
    disk_->EnsureAllocatedThrough(recovered_pid + 1);
  }
  // Durable mode: the schema lives in <data_dir>/catalog.db. Reopening an
  // existing directory replays the stored DDL — tables, indexes (their
  // eager B+Tree roots allocate AFTER the bump above, so they can never
  // collide with logged page ids), key schemas, DORA routing config — so
  // the application never re-creates its schema. Only then is the store
  // attached for write-through: every subsequent DDL is durable before it
  // returns. A corrupt or version-mismatched catalog leaves the catalog
  // empty and parks the named error in catalog_status_; Recover() refuses
  // to run with it (misrouting over a half-read schema would be silent
  // data loss), and the bad file is left in place as evidence.
  if (!options_.data_dir.empty()) {
    catalog_store_ = std::make_unique<CatalogStore>(options_.data_dir);
    catalog_file_found_ = catalog_store_->Exists();
    if (catalog_file_found_) {
      CatalogImage img;
      catalog_status_ = catalog_store_->Load(&img);
      if (catalog_status_.ok()) {
        catalog_status_ = ReplayCatalogImage(img, catalog_.get());
      }
    } else if (log_->stable_size() == 0) {
      // First durable open of a FRESH directory: persist the (empty)
      // catalog now, so even a database that never issues DDL — whose WAL
      // will only ever hold checkpoint records — reopens self-described
      // instead of tripping Recover()'s missing-catalog guard. A
      // directory that already holds WAL content but no catalog.db (a
      // pre-catalog or damaged one) deliberately gets NO bootstrap file:
      // writing one would make a bare reopen retry indistinguishable from
      // the legitimate schema-less case and defeat the guard on the next
      // lifetime — it stays catalog-less until the application's first
      // write-through DDL describes it.
      catalog_status_ = catalog_store_->Save(CatalogImage{});
    }
    if (catalog_status_.ok()) {
      catalog_->SetStore(catalog_store_.get());
    } else {
      // New DDL on top of an unreadable catalog could never be persisted
      // or recovered; poison the catalog so every mutation path — not
      // just Recover() — surfaces the named error.
      catalog_->Poison(catalog_status_);
    }
  }
  // Checkpoints snapshot the catalog before publishing a horizon, so log
  // truncation can never outrun the schema description (a no-op while DDL
  // write-through keeps the file current).
  ckpt_->SetCatalogPersist([this] { return catalog_->Persist(); });
  pool_->SetWalFlushCallback([this](Lsn lsn) {
    // WAL rule: the covering (partition) flush horizon must pass the page
    // LSN before the dirty page may be stolen. A poisoned log stream makes
    // that impossible — report failure so the pool refuses the write-back.
    if (lsn == kInvalidLsn) return true;
    return log_->FlushTo(lsn).ok();
  });
  // Dirty-page attribution for partition-local checkpoints: a logged write
  // belongs to the writer's bound log partition.
  pool_->SetPartitionResolver(
      [this] { return log_->CurrentPartition(); });
  // A reopened durable database (data_dir with recovered log content) is
  // checkpoint-quiescent until Recover() runs: the daemon's horizon over a
  // cold empty pool would cover — and truncate — committed records whose
  // only copy is the log recovery has not replayed yet. Recover() starts
  // the daemon once the replay is done.
  if (options_.checkpoint.enabled &&
      (options_.data_dir.empty() || log_->stable_size() == 0)) {
    ckpt_->Start();
  }
  // Pull-style registry metrics over this database's subsystems. The
  // callbacks dereference members, so the destructor unregisters them
  // before any member dies.
  auto& reg = obs::MetricsRegistry::Default();
  const auto kCtr = obs::MetricType::kCounter;
  const auto kGau = obs::MetricType::kGauge;
  auto cb = [this, &reg](const std::string& name, std::function<int64_t()> fn,
                         obs::MetricType type, const char* unit) {
    obs_tokens_.push_back(reg.RegisterCallback(name, std::move(fn), type,
                                               unit));
  };
  cb("txn.started", [this] { return static_cast<int64_t>(txns_->started()); },
     kCtr, "txns");
  cb("txn.active",
     [this] { return static_cast<int64_t>(txns_->num_active()); }, kGau,
     "txns");
  cb("log.appends", [this] { return static_cast<int64_t>(log_->appends()); },
     kCtr, "records");
  cb("log.flushes", [this] { return static_cast<int64_t>(log_->flushes()); },
     kCtr, "calls");
  cb("log.idle_syncs_skipped",
     [this] { return static_cast<int64_t>(log_->idle_syncs_skipped()); },
     kCtr, "calls");
  cb("log.flushed_lsn",
     [this] { return static_cast<int64_t>(log_->flushed_lsn()); }, kGau,
     "lsn");
  cb("log.stable_bytes",
     [this] { return static_cast<int64_t>(log_->stable_size()); }, kGau,
     "bytes");
  cb("log.reclaimed_bytes",
     [this] { return static_cast<int64_t>(log_->reclaimed_bytes()); }, kCtr,
     "bytes");
  cb("ckpt.checkpoints",
     [this] { return static_cast<int64_t>(ckpt_->stats().checkpoints); },
     kCtr, "records");
  cb("ckpt.pages_flushed",
     [this] { return static_cast<int64_t>(ckpt_->stats().pages_flushed); },
     kCtr, "pages");
  cb("ckpt.pages_skipped",
     [this] { return static_cast<int64_t>(ckpt_->stats().pages_skipped); },
     kCtr, "pages");
  cb("ckpt.last_horizon",
     [this] { return static_cast<int64_t>(ckpt_->last_horizon()); }, kGau,
     "lsn");
  // Health surface: 0 = Ok, 1 = Degraded (read-only; logged commits fail
  // Unavailable). The retry/error counters come from the storage layer's
  // bounded-retry I/O wrappers and count process-wide.
  cb("engine.health_state",
     [] {
       return static_cast<int64_t>(obs::EngineHealth::Default().state());
     },
     kGau, "state");
  cb("log.io_retries",
     [] {
       return static_cast<int64_t>(obs::EngineHealth::Default().io_retries());
     },
     kCtr, "retries");
  cb("log.io_errors",
     [] {
       return static_cast<int64_t>(obs::EngineHealth::Default().io_errors());
     },
     kCtr, "errors");
  if (options_.stats_interval_ms != 0) {
    reporter_ = std::make_unique<obs::StatsReporter>(
        &reg, options_.stats_interval_ms);
    reporter_->Start();
  }
  // Stall watchdog: refcounted process-wide thread; the last-retaining
  // database's options win. A stuck group-commit horizon — appends past
  // the flushed LSN that stop advancing — is a stall even when every
  // thread still heartbeats, so it gets its own progress probe.
  if (options_.watchdog_interval_ms != 0) {
    obs::Watchdog::Options wo;
    wo.interval_ms = options_.watchdog_interval_ms;
    wo.stall_ms = options_.stall_threshold_ms;
    wo.dump_dir = options_.data_dir;  // empty: render-only, no files
    obs::Watchdog::Default().Retain(wo);
    watchdog_retained_ = true;
    horizon_probe_token_ = obs::Watchdog::Default().RegisterProgressProbe(
        "log.flush_horizon",
        [this] { return log_->current_lsn() > log_->flushed_lsn(); },
        [this] { return static_cast<uint64_t>(log_->flushed_lsn()); });
  }
  // Live metrics endpoint: loopback HTTP serving /metrics, /heatmap and
  // /healthz. Port 0 binds ephemerally and announces the choice on stderr
  // so harnesses (and humans) can find it.
  if (options_.obs_port >= 0) {
    obs::ObsServer::Options so;
    so.port = options_.obs_port;
    obs_server_ = std::make_unique<obs::ObsServer>(so);
    const Status s = obs_server_->Start();
    if (s.ok()) {
      fprintf(stderr, "DORADB_OBS {\"port\":%d}\n", obs_server_->port());
      fflush(stderr);
    } else {
      fprintf(stderr, "DORADB_OBS {\"error\":\"%s\"}\n", s.ToString().c_str());
      obs_server_.reset();
    }
  }
}

Database::~Database() {
  // Endpoint first (it serves the registry and the watchdog verdict),
  // then reporter (it snapshots the registry, whose callbacks read the
  // members below), then the callbacks themselves, then the watchdog
  // probe + retain (the probe reads log_).
  if (obs_server_ != nullptr) obs_server_->Stop();
  if (reporter_ != nullptr) reporter_->Stop();
  for (const uint64_t token : obs_tokens_) {
    obs::MetricsRegistry::Default().Unregister(token);
  }
  obs_tokens_.clear();
  if (horizon_probe_token_ != 0) {
    obs::Watchdog::Default().UnregisterProbe(horizon_probe_token_);
    horizon_probe_token_ = 0;
  }
  if (watchdog_retained_) {
    obs::Watchdog::Default().Release();
    watchdog_retained_ = false;
  }
  // The checkpoint daemon reads the pool and appends to the log; stop it
  // before either can die. Members then destroy in reverse declaration
  // order, which tears the log down before the pool — so flush dirty pages
  // while the log is still alive (WAL rule intact), then detach the
  // callback for the pool's own destructor. The seed hid this as a
  // use-after-free that virtual dispatch on LogBackend turned into a
  // crash.
  ckpt_->Stop();
  (void)pool_->FlushAll();
  (void)disk_->Sync();  // clean shutdown: flushed pages reach the medium
  pool_->SetWalFlushCallback(nullptr);
}

Histogram* Database::CommitLatencyHistogram() {
  static Histogram* h = obs::MetricsRegistry::Default().GetHistogram(
      "txn.commit_latency_ns", "ns");
  return h;
}

Status Database::Commit(Transaction* txn) {
  auto& health = obs::EngineHealth::Default();
  if (health.degraded()) {
    if (!txn->logged_work()) {
      // Read-only transaction: nothing beyond the eager kBegin was logged,
      // so its commit needs no durability wait — degraded mode keeps
      // serving reads.
      for (auto& fn : txn->post_commit()) fn();
      txn->post_commit().clear();
      lock_->ReleaseAll(txn);
      txns_->Finish(txn);
      txn->set_state(TxnState::kCommitted);
      return Status::OK();
    }
    // Logged transaction, caught before the commit record: nothing it
    // wrote can ever become durable, so roll it back cleanly while its
    // undo chain is still intact and surface the typed error.
    (void)Abort(txn);
    return Status::Unavailable("engine degraded: " + health.reason());
  }
  const Lsn end = CommitAsync(txn);
  obs::CommitTracer::Stamp(txn->id(), obs::TraceStage::kCommitAppend);
  // Durability point (group commit). A failure here is NOT an abort: the
  // commit record is already appended and may or may not have reached the
  // medium before the stream poisoned itself.
  const Status durable = log_->WaitFlushed(end);
  if (!durable.ok()) return CommitIndeterminate(txn, durable);
  obs::CommitTracer::Stamp(txn->id(), obs::TraceStage::kDurable);
  const Status s = CommitFinalize(txn);
  if (obs::MetricsEnabled() && txn->start_tsc() != 0) {
    CommitLatencyHistogram()->Record(static_cast<uint64_t>(
        Cycles::ToNanos(Cycles::Now() - txn->start_tsc())));
  }
  return s;
}

Status Database::CommitIndeterminate(Transaction* txn, Status why) {
  // The client must not assume the commit happened (no post-commit
  // actions, no kEnd record, no physical frees of ghost deletes); recovery
  // decides the outcome from the stable log on the next lifetime. Locks
  // are released and the handle retired so the client can dispose of it.
  if (obs::MetricsEnabled()) {
    static obs::Counter* c = obs::MetricsRegistry::Default().GetCounter(
        "txn.commit_indeterminate", "txns");
    c->Add();
  }
  txn->post_commit().clear();
  lock_->ReleaseAll(txn);
  txns_->Finish(txn);
  txn->set_state(TxnState::kAborted);
  return why;
}

Lsn Database::CommitAsync(Transaction* txn) {
  LogRecord rec;
  rec.type = LogType::kCommit;
  rec.txn = txn->id();
  return txn->ChainAppend(log_.get(), &rec);
}

Status Database::CommitFinalize(Transaction* txn) {
  // Post-commit work, outside the transaction: physical frees of deleted
  // slots and DORA's secondary-index delete flagging (§4.2.2).
  for (auto& fn : txn->post_commit()) fn();
  txn->post_commit().clear();

  LogRecord end_rec;
  end_rec.type = LogType::kEnd;
  end_rec.txn = txn->id();
  txn->ChainAppend(log_.get(), &end_rec);

  lock_->ReleaseAll(txn);
  txns_->Finish(txn);
  txn->set_state(TxnState::kCommitted);
  return Status::OK();
}

Status Database::Abort(Transaction* txn) {
  if (obs::MetricsEnabled()) {
    static obs::Counter* aborts =
        obs::MetricsRegistry::Default().GetCounter("txn.aborts", "txns");
    aborts->Add();
  }
  LogRecord abort_rec;
  abort_rec.type = LogType::kAbort;
  abort_rec.txn = txn->id();
  txn->ChainAppend(log_.get(), &abort_rec);

  // Undo heap operations, newest first, logging a CLR per undone op.
  auto& undo = txn->undo();
  for (auto it = undo.rbegin(); it != undo.rend(); ++it) {
    HeapFile* heap = catalog_->Heap(it->table);
    Status s;
    LogRecord clr;
    clr.type = LogType::kClr;
    clr.txn = txn->id();
    clr.table = it->table;
    clr.rid = it->rid;
    // ARIES undo_next: the next record still requiring undo (restart undo
    // resumes here if we crash mid-rollback).
    auto next_it = it + 1;
    clr.undo_next = next_it != undo.rend() ? next_it->lsn : kInvalidLsn;
    switch (it->kind) {
      case UndoRecord::Kind::kInsert:
        clr.clr_action = LogType::kDelete;
        txn->ChainAppend(log_.get(), &clr);
        s = heap->Delete(it->rid, nullptr, clr.lsn);
        break;
      case UndoRecord::Kind::kUpdate:
        clr.clr_action = LogType::kUpdate;
        clr.after = it->before;
        txn->ChainAppend(log_.get(), &clr);
        s = heap->Update(it->rid, it->before, nullptr, clr.lsn);
        break;
      case UndoRecord::Kind::kDelete:
        // Physical free was deferred to post-commit, which never ran:
        // nothing to undo on the heap.
        continue;
    }
    if (!s.ok()) return Status::Corruption("rollback failed: " + s.ToString());
  }
  undo.clear();

  // Reverse index operations logically.
  auto& iundo = txn->index_undo();
  for (auto it = iundo.rbegin(); it != iundo.rend(); ++it) {
    BTree* tree = catalog_->Index(it->index);
    switch (it->kind) {
      case IndexUndo::Kind::kInsert:
        (void)tree->Remove(it->key, it->rid);
        break;
      case IndexUndo::Kind::kRemove:
        (void)tree->Insert(it->key, IndexEntry{it->rid, it->aux, false});
        break;
    }
  }
  iundo.clear();
  txn->post_commit().clear();

  LogRecord end_rec;
  end_rec.type = LogType::kEnd;
  end_rec.txn = txn->id();
  txn->ChainAppend(log_.get(), &end_rec);

  lock_->ReleaseAll(txn);
  txns_->Finish(txn);
  txn->set_state(TxnState::kAborted);
  return Status::OK();
}

Status Database::Read(Transaction* txn, TableId table, const Rid& rid,
                      std::string* record, const AccessOptions& opts) {
  if (opts.use_locks) {
    DORADB_RETURN_NOT_OK(lock_->LockRow(txn, table, rid, LockMode::kS));
  }
  return catalog_->Heap(table)->Get(rid, record);
}

Status Database::Insert(Transaction* txn, TableId table,
                        std::string_view record, Rid* rid,
                        const AccessOptions& opts) {
  HeapFile* heap = catalog_->Heap(table);
  DORADB_RETURN_NOT_OK(heap->Insert(record, rid));
  // Lock the freshly allocated RID. Baseline takes the full hierarchy; DORA
  // takes only the row lock (§4.2.1). The slot cannot clash with a ghost
  // (ghost slots stay occupied until their deleter commits).
  if (opts.use_locks) {
    const Status s = lock_->LockRow(txn, table, *rid, LockMode::kX);
    if (!s.ok()) {
      (void)heap->Delete(*rid);  // roll the physical insert back
      return s;
    }
  } else if (opts.rid_lock_only) {
    const Status s = lock_->Lock(txn, LockId::Row(table, *rid), LockMode::kX);
    if (!s.ok()) {
      (void)heap->Delete(*rid);
      return s;
    }
    ThreadStats::Local().CountLock(LockCounter::kRowLevel);
  }

  LogRecord rec;
  rec.type = LogType::kInsert;
  rec.txn = txn->id();
  rec.table = table;
  rec.rid = *rid;
  rec.after = std::string(record);
  txn->PinUndoLow(log_->current_lsn());  // before the append: pin <= lsn
  txn->ChainAppend(log_.get(), &rec);
  // The LSN is only known after the physical insert; stamp it now (page
  // LSNs are monotone, so racing stampers are harmless).
  (void)heap->StampPageLsn(rid->page_id, rec.lsn);

  txn->PushUndo(
      UndoRecord{UndoRecord::Kind::kInsert, table, *rid, "", rec.lsn});
  return Status::OK();
}

Status Database::Update(Transaction* txn, TableId table, const Rid& rid,
                        std::string_view record, const AccessOptions& opts) {
  if (opts.use_locks) {
    DORADB_RETURN_NOT_OK(lock_->LockRow(txn, table, rid, LockMode::kX));
  }
  HeapFile* heap = catalog_->Heap(table);

  // WAL: log first (with the before image), then apply stamped with the
  // record's LSN.
  std::string before;
  DORADB_RETURN_NOT_OK(heap->Get(rid, &before));
  LogRecord rec;
  rec.type = LogType::kUpdate;
  rec.txn = txn->id();
  rec.table = table;
  rec.rid = rid;
  rec.before = before;
  rec.after = std::string(record);
  txn->PinUndoLow(log_->current_lsn());  // before the append: pin <= lsn
  txn->ChainAppend(log_.get(), &rec);

  DORADB_RETURN_NOT_OK(heap->Update(rid, record, nullptr, rec.lsn));
  txn->PushUndo(UndoRecord{UndoRecord::Kind::kUpdate, table, rid,
                           std::move(before), rec.lsn});
  return Status::OK();
}

Status Database::Delete(Transaction* txn, TableId table, const Rid& rid,
                        const AccessOptions& opts) {
  if (opts.use_locks) {
    DORADB_RETURN_NOT_OK(lock_->LockRow(txn, table, rid, LockMode::kX));
  } else if (opts.rid_lock_only) {
    DORADB_RETURN_NOT_OK(
        lock_->Lock(txn, LockId::Row(table, rid), LockMode::kX));
    ThreadStats::Local().CountLock(LockCounter::kRowLevel);
  }
  HeapFile* heap = catalog_->Heap(table);
  std::string before;
  DORADB_RETURN_NOT_OK(heap->Get(rid, &before));

  LogRecord rec;
  rec.type = LogType::kDelete;
  rec.txn = txn->id();
  rec.table = table;
  rec.rid = rid;
  rec.before = before;
  txn->PinUndoLow(log_->current_lsn());  // before the append: pin <= lsn
  txn->ChainAppend(log_.get(), &rec);

  txn->PushUndo(UndoRecord{UndoRecord::Kind::kDelete, table, rid,
                           std::move(before), rec.lsn});
  // Ghost until commit: physically free the slot only once durable.
  const Lsn lsn = rec.lsn;
  txn->AddPostCommit([this, table, rid, lsn] {
    (void)PhysicalDelete(table, rid, lsn);
  });
  return Status::OK();
}

Status Database::PhysicalDelete(TableId table, const Rid& rid, Lsn lsn) {
  return catalog_->Heap(table)->Delete(rid, nullptr, lsn);
}

Status Database::IndexInsert(Transaction* txn, IndexId index,
                             std::string_view key, const IndexEntry& entry) {
  DORADB_RETURN_NOT_OK(catalog_->Index(index)->Insert(key, entry));
  txn->PushIndexUndo(IndexUndo{IndexUndo::Kind::kInsert, index,
                               std::string(key), entry.rid, entry.aux});
  return Status::OK();
}

Status Database::IndexRemove(Transaction* txn, IndexId index,
                             std::string_view key, const Rid& rid,
                             uint64_t aux_for_undo) {
  DORADB_RETURN_NOT_OK(catalog_->Index(index)->Remove(key, rid));
  txn->PushIndexUndo(IndexUndo{IndexUndo::Kind::kRemove, index,
                               std::string(key), rid, aux_for_undo});
  return Status::OK();
}

Status Database::Checkpoint() { return ckpt_->CheckpointGlobal(); }

Status Database::CheckpointPartition(uint32_t partition) {
  return ckpt_->CheckpointPartition(partition);
}

void Database::SimulateCrash() {
  ckpt_->Stop();  // the daemon does not survive the process
  log_->DiscardVolatileTail();
  pool_->DiscardAll();
}

void Database::SimulateKill() {
  ckpt_->Stop();
  log_->SimulateKill();
  pool_->DiscardAll();
}

}  // namespace doradb
