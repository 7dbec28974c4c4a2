#include "src/flipc/cluster.h"

#include <algorithm>
#include <cmath>
#include <thread>
#include <utility>

#include "src/base/thread_annotations.h"

namespace flipc {

// ================================ Cluster ===================================

Result<std::unique_ptr<Cluster>> Cluster::Create(const Options& options) {
  auto cluster = std::unique_ptr<Cluster>(new Cluster());
  cluster->options_ = options;  // RestartShard rebuilds engines from these.
  // One wire lane per planner shard, each lane's rings sized like the
  // handoff ring (the doorbell ring's capacity) with slots of one message.
  simnet::ThreadFabric::Options fabric_options;
  fabric_options.lanes = options.comm.shard_count;
  fabric_options.ring_capacity = options.comm.effective_doorbell_capacity();
  fabric_options.max_payload = options.comm.message_size;
  cluster->fabric_ = std::make_unique<simnet::ThreadFabric>(options.node_count, fabric_options);

  const unsigned hw_threads = std::max(1u, std::thread::hardware_concurrency());
  unsigned next_cpu = 0;

  for (NodeId n = 0; n < options.node_count; ++n) {
    auto node = std::make_unique<Node>();
    Domain::Options domain_options;
    domain_options.comm = options.comm;
    domain_options.node = n;
    FLIPC_ASSIGN_OR_RETURN(node->domain,
                           Domain::Create(domain_options, &cluster->semaphores_));

    const std::uint32_t shards = node->domain->comm().shard_count();
    cluster->shard_count_ = shards;
    node->handoffs.resize(shards);
    for (std::uint32_t s = 0; s < shards; ++s) {
      engine::EngineOptions engine_options = options.engine;
      engine_options.shard_id = s;
      auto eng = std::make_unique<engine::MessagingEngine>(
          node->domain->comm(), cluster->fabric_->wire(n), engine_options,
          /*model=*/nullptr, &cluster->semaphores_);
      eng->SetClock(&RealClock::Instance());
      if (s != 0) {
        // Distributor (shard 0) → consumer shard s handoff ring, sized like
        // the doorbell ring: enough slack that only sustained consumer lag
        // parks the distributor.
        node->handoffs[s] = std::make_unique<engine::MessagingEngine::HandoffRing>(
            node->domain->comm().doorbell_capacity(), /*producer_shard=*/0,
            /*consumer_shard=*/s);
        node->engines[0]->SetHandoffOutbox(s, node->handoffs[s].get());
        eng->SetHandoffInbox(node->handoffs[s].get());
      }
      engine::EngineRunner::Options runner_options;
      runner_options.max_idle_park_ns = options.max_idle_park_ns;
      if (shards > 1 && options.pin_shard_threads) {
        runner_options.pin_cpu = static_cast<int>(next_cpu++ % hw_threads);
        runner_options.warm_touch = true;
      }
      node->engines.push_back(std::move(eng));
      node->runners.push_back(std::make_unique<engine::EngineRunner>(
          *node->engines.back(), runner_options));
      node->runner_options.push_back(runner_options);
    }

    // Every kick null-checks its runner slot under the node's runner mutex:
    // between KillShard and RestartShard the slot is empty, and a kick for
    // a dead shard must be a no-op, not a crash. (Kicking is already off
    // the product hot path — a host-thread parking artifact.)
    Node* node_ptr = node.get();
    node->kick_shard = [node_ptr](std::uint32_t shard) {
      ScopedLock<std::mutex> guard(node_ptr->runner_mutex);
      if (shard < node_ptr->runners.size() && node_ptr->runners[shard] != nullptr) {
        node_ptr->runners[shard]->Kick();
      }
    };
    for (std::uint32_t s = 0; s < shards; ++s) {
      node->engines[s]->SetShardKick(node->kick_shard);
    }
    node->domain->SetShardKick(node->kick_shard);
    // Unqualified kicks (callers that do not know the owning shard) wake
    // everyone; with one shard that degenerates to the classic wiring.
    node->domain->SetEngineKick([node_ptr] {
      ScopedLock<std::mutex> guard(node_ptr->runner_mutex);
      for (auto& runner : node_ptr->runners) {
        if (runner != nullptr) {
          runner->Kick();
        }
      }
    });
    // Only the distributor polls the wire, so deliveries wake shard 0 —
    // through the null-safe kick, so a killed distributor tolerates
    // deliveries arriving while it is down.
    cluster->fabric_->SetDeliveryCallback(n, [node_ptr] { node_ptr->kick_shard(0); });
    // A receiver that frees a slot of a full wire ring wakes the planner
    // that filled it (null-safe too: the planner may be dead).
    for (std::uint32_t s = 0; s < shards; ++s) {
      cluster->fabric_->SetUnstallCallback(n, s, [node_ptr, s] { node_ptr->kick_shard(s); });
    }

    cluster->nodes_.push_back(std::move(node));
  }
  return cluster;
}

Cluster::~Cluster() { Stop(); }

engine::EngineStats Cluster::aggregate_stats(NodeId node) const {
  engine::EngineStats total;
  ScopedLock<std::mutex> guard(nodes_[node]->runner_mutex);
  for (const auto& eng : nodes_[node]->engines) {
    if (eng != nullptr) {
      total.Add(eng->stats());
    }
  }
  return total;
}

void Cluster::Start() {
  if (started_) {
    return;
  }
  for (auto& node : nodes_) {
    ScopedLock<std::mutex> guard(node->runner_mutex);
    for (auto& runner : node->runners) {
      if (runner != nullptr) {
        runner->Start();
      }
    }
  }
  started_ = true;
}

void Cluster::Stop() {
  if (!started_) {
    return;
  }
  for (auto& node : nodes_) {
    // Move the runners out under the mutex, join outside it: a dying loop
    // thread may be inside a kick lambda that takes the same mutex.
    std::vector<std::unique_ptr<engine::EngineRunner>> doomed;
    {
      ScopedLock<std::mutex> guard(node->runner_mutex);
      doomed.resize(node->runners.size());
      for (std::size_t s = 0; s < node->runners.size(); ++s) {
        doomed[s] = std::move(node->runners[s]);
      }
    }
    for (auto& runner : doomed) {
      if (runner != nullptr) {
        runner->Stop();
      }
    }
    {
      ScopedLock<std::mutex> guard(node->runner_mutex);
      for (std::size_t s = 0; s < node->runners.size(); ++s) {
        node->runners[s] = std::move(doomed[s]);
      }
    }
  }
  started_ = false;
}

bool Cluster::shard_alive(NodeId node, std::uint32_t shard) const {
  ScopedLock<std::mutex> guard(nodes_[node]->runner_mutex);
  return shard < nodes_[node]->engines.size() &&
         nodes_[node]->engines[shard] != nullptr;
}

bool Cluster::KillShard(NodeId node_id, std::uint32_t shard) {
  Node& node = *nodes_[node_id];
  std::unique_ptr<engine::EngineRunner> runner;
  {
    ScopedLock<std::mutex> guard(node.runner_mutex);
    if (shard >= node.engines.size() || node.engines[shard] == nullptr) {
      return false;
    }
    runner = std::move(node.runners[shard]);
  }
  // Join outside the mutex (the loop thread's last act may be a kick that
  // takes it). After the join nothing references the engine; destroy it.
  if (runner != nullptr) {
    runner->Stop();
    runner.reset();
  }
  ScopedLock<std::mutex> guard(node.runner_mutex);
  node.engines[shard].reset();
  return true;
}

bool Cluster::RestartShard(NodeId node_id, std::uint32_t shard) {
  Node& node = *nodes_[node_id];
  {
    ScopedLock<std::mutex> guard(node.runner_mutex);
    if (shard >= node.engines.size() || node.engines[shard] != nullptr) {
      return false;
    }
  }
  // Build and recover the engine before publishing it: RecoverFromBuffer
  // must run in the quiescent role, before any runner can step the shard.
  engine::EngineOptions engine_options = options_.engine;
  engine_options.shard_id = shard;
  auto eng = std::make_unique<engine::MessagingEngine>(
      node.domain->comm(), fabric_->wire(node_id), engine_options,
      /*model=*/nullptr, &semaphores_);
  eng->SetClock(&RealClock::Instance());
  // The Node-owned handoff rings survived the crash (cursors and the
  // producer's private position live in the ring object); only the
  // engine's pointers need rewiring.
  if (shard == 0) {
    for (std::uint32_t s = 1; s < node.handoffs.size(); ++s) {
      eng->SetHandoffOutbox(s, node.handoffs[s].get());
    }
  } else {
    eng->SetHandoffInbox(node.handoffs[shard].get());
  }
  eng->SetShardKick(node.kick_shard);
  eng->RecoverFromBuffer();

  auto runner = std::make_unique<engine::EngineRunner>(*eng, node.runner_options[shard]);
  engine::EngineRunner* started = nullptr;
  {
    ScopedLock<std::mutex> guard(node.runner_mutex);
    node.engines[shard] = std::move(eng);
    node.runners[shard] = std::move(runner);
    started = node.runners[shard].get();
  }
  if (started_) {
    started->Start();
  }
  // Wake every surviving runner: peers may be parked waiting on the dead
  // shard (a distributor with a parked packet for its full inbox, or
  // consumers idle behind a wire nobody polled).
  ScopedLock<std::mutex> guard(node.runner_mutex);
  for (auto& r : node.runners) {
    if (r != nullptr) {
      r->Kick();
    }
  }
  return true;
}

// =============================== SimCluster =================================

Result<std::unique_ptr<SimCluster>> SimCluster::Create(Options options) {
  auto cluster = std::unique_ptr<SimCluster>(new SimCluster());
  cluster->model_ = options.model;

  std::unique_ptr<simnet::LinkModel> link = std::move(options.link_model);
  if (link == nullptr) {
    simnet::MeshLinkModel::Params mesh;
    mesh.width = static_cast<std::uint32_t>(
        std::ceil(std::sqrt(static_cast<double>(options.node_count))));
    if (mesh.width == 0) {
      mesh.width = 1;
    }
    link = std::make_unique<simnet::MeshLinkModel>(mesh);
  }
  cluster->fabric_ = std::make_unique<simnet::SimFabric>(
      cluster->sim_, std::move(link), options.node_count, std::move(options.fabric));

  for (NodeId n = 0; n < options.node_count; ++n) {
    auto node = std::make_unique<Node>();
    Domain::Options domain_options;
    domain_options.comm = options.comm;
    domain_options.node = n;
    FLIPC_ASSIGN_OR_RETURN(node->domain,
                           Domain::Create(domain_options, &cluster->semaphores_));

    if (options.engine_kind == EngineKind::kKkt) {
      node->engine = std::make_unique<kkt::KktMessagingEngine>(
          node->domain->comm(), cluster->fabric_->wire(n), options.engine, &cluster->model_,
          &options.kkt, &cluster->semaphores_);
    } else {
      node->engine = std::make_unique<engine::MessagingEngine>(
          node->domain->comm(), cluster->fabric_->wire(n), options.engine, &cluster->model_,
          &cluster->semaphores_);
    }
    node->engine->SetClock(&cluster->sim_.clock());
    node->driver = std::make_unique<engine::SimEngineDriver>(cluster->sim_, *node->engine);

    engine::SimEngineDriver* driver = node->driver.get();
    node->domain->SetEngineKick([driver] { driver->Kick(); });
    cluster->fabric_->SetDeliveryCallback(n, [driver] { driver->Kick(); });

    cluster->nodes_.push_back(std::move(node));
  }
  return cluster;
}

SimCluster::~SimCluster() = default;

}  // namespace flipc
