#include "resilience/failover.hpp"

#include <algorithm>
#include <charconv>

#include "resilience/resilient_channel.hpp"

namespace h2::resil {

FailoverChannel::FailoverChannel(dvm::Dvm& dvm, container::Container& origin,
                                 std::string service_name, CallPolicy policy,
                                 std::vector<wsdl::BindingKind> preference)
    : dvm_(dvm),
      origin_(origin),
      service_(std::move(service_name)),
      policy_(policy),
      preference_(std::move(preference)),
      c_failovers_(origin.network().metrics().counter("h2.resil.failovers")) {}

Result<std::unique_ptr<net::Channel>> FailoverChannel::open_candidate(
    const wsdl::Definitions& defs) {
  if (preference_.empty()) {
    return origin_.open_resilient_channel(defs, policy_);
  }
  return origin_.open_resilient_channel(defs, policy_, preference_);
}

std::string FailoverChannel::node_of(const net::Channel& channel) const {
  const net::Endpoint* remote = channel.remote();
  return remote != nullptr ? remote->host : origin_.name();
}

template <typename Attempt>
auto FailoverChannel::call_with_failover(Attempt&& attempt)
    -> decltype(attempt(std::declval<net::Channel&>())) {
  std::string failed_node;
  // Sticky primary: keep using the node that last answered until it
  // becomes unavailable — failover is an event, not a per-call lottery.
  if (current_) {
    auto outcome = attempt(*current_);
    last_stats_ = current_->last_stats();
    if (outcome.ok() || outcome.error().code() != ErrorCode::kUnavailable) {
      // Success, an application answer, or kTimeout ("maybe executed" —
      // switching replicas now could double-apply; the caller decides).
      return outcome;
    }
    failed_node = current_node_;
    current_.reset();
    current_node_.clear();
  }

  Error last_error =
      err::unavailable("no replica of '" + service_ + "' in dvm " + dvm_.name());
  for (const wsdl::Definitions& defs : dvm_.find_all_services(service_)) {
    auto channel = open_candidate(defs);
    if (!channel.ok()) {
      last_error = channel.error();
      continue;
    }
    std::string node = node_of(**channel);
    if (node == failed_node) continue;  // the replica that just failed us
    auto outcome = attempt(**channel);
    last_stats_ = (*channel)->last_stats();
    const bool definitely_not_executed =
        !outcome.ok() && outcome.error().code() == ErrorCode::kUnavailable;
    if (definitely_not_executed) {
      last_error = outcome.error();
      continue;
    }
    // This replica owns the call now (even a kTimeout pins us here: only
    // same-node same-id retries are safe after a maybe-executed attempt).
    if (!failed_node.empty() && node != failed_node) {
      c_failovers_.add();
      dvm_.announce_failover(service_, failed_node, node);
    }
    current_ = std::move(*channel);
    current_node_ = std::move(node);
    return outcome;
  }

  // Every replica is (currently) unreachable. No handler ran anywhere, but
  // surfacing kUnavailable would leak transport taxonomy into callers that
  // only want "done, answered, or try again later" — so the terminal
  // failure of a logical call is always kTimeout.
  return Error(ErrorCode::kTimeout, "no replica available for '" + service_ + "' (" +
                                        last_error.message() + ")");
}

Result<Value> FailoverChannel::invoke(std::string_view operation,
                                      std::span<const Value> params) {
  return call_with_failover(
      [&](net::Channel& channel) { return channel.invoke(operation, params); });
}

Status FailoverChannel::invoke_batch(std::span<const net::BatchItem> calls,
                                     std::vector<Result<Value>>& results) {
  if (calls.empty()) {
    results.clear();
    return Status::success();
  }
  Status status = call_with_failover(
      [&](net::Channel& channel) { return channel.invoke_batch(calls, results); });
  if (!status.ok()) results.assign(calls.size(), Result<Value>(status.error()));
  return status;
}

// ---- ShardRoutedChannel ---------------------------------------------------------

namespace {

/// Parses the "ts writer" reply of the state service's wset operation.
std::optional<dvm::Version> parse_version(std::string_view reply) {
  const std::size_t space = reply.find(' ');
  if (space == std::string_view::npos) return std::nullopt;
  dvm::Version v;
  auto [p1, e1] = std::from_chars(reply.data(), reply.data() + space, v.ts);
  auto [p2, e2] =
      std::from_chars(reply.data() + space + 1, reply.data() + reply.size(), v.writer);
  if (e1 != std::errc() || e2 != std::errc()) return std::nullopt;
  return v;
}

std::vector<Value> wset_params(std::string_view key, std::string_view value) {
  return {Value::of_string(std::string(key), "key"),
          Value::of_string(std::string(value), "value")};
}

}  // namespace

ShardRoutedChannel::ShardRoutedChannel(dvm::Dvm& dvm, container::Container& origin,
                                       CallPolicy policy)
    : dvm_(dvm),
      origin_(origin),
      policy_(policy),
      c_failovers_(origin.network().metrics().counter("h2.resil.shard.failovers")) {}

net::Channel& ShardRoutedChannel::channel_to(const std::string& node) {
  auto it = channels_.find(node);
  if (it == channels_.end()) {
    net::Endpoint endpoint{
        .scheme = "xdr", .host = node, .port = dvm::kStatePort, .path = ""};
    auto inner = net::make_xdr_channel(origin_.network(), origin_.host(), endpoint);
    it = channels_
             .emplace(node, make_resilient_channel(
                                std::move(inner), origin_.network(), policy_,
                                /*breaker=*/nullptr,
                                "xdr://" + node + ":" + std::to_string(dvm::kStatePort)))
             .first;
  }
  return *it->second;
}

std::vector<std::string> ShardRoutedChannel::owner_order(
    std::size_t shard, std::span<const std::string> owners) const {
  // Sticky owner first (if it still owns the shard), then ring order.
  std::vector<std::string> out;
  out.reserve(owners.size());
  auto sticky = sticky_.find(shard);
  if (sticky != sticky_.end()) {
    for (const std::string& owner : owners) {
      if (owner == sticky->second) {
        out.push_back(owner);
        break;
      }
    }
  }
  for (const std::string& owner : owners) {
    if (out.empty() || owner != out.front()) out.push_back(owner);
  }
  return out;
}

void ShardRoutedChannel::note_served(std::size_t shard, const std::string& node) {
  auto it = sticky_.find(shard);
  if (it != sticky_.end() && it->second != node) {
    ++failovers_;
    c_failovers_.add();
    dvm_.announce_failover("dvm-state", it->second, node);
  }
  sticky_[shard] = node;
}

std::string ShardRoutedChannel::routed_node(std::string_view key) const {
  const dvm::ShardMap* map = dvm_.shard_map();
  if (map == nullptr) return "";
  auto it = sticky_.find(map->shard_of(key));
  return it == sticky_.end() ? "" : it->second;
}

Result<std::string> ShardRoutedChannel::get(std::string_view key) {
  const dvm::ShardMap* map = dvm_.shard_map();
  if (map == nullptr) {
    return err::unsupported("shard routing requires the sharded coherency mode");
  }
  const std::size_t shard = map->shard_of(key);
  std::vector<Value> params{Value::of_string(std::string(key), "key")};
  bool any_answered = false;
  Error last_error = err::unavailable("shard " + std::to_string(shard) + " has no owners");
  for (const std::string& node : owner_order(shard, map->owners(shard))) {
    auto result = channel_to(node).invoke("get", params);
    if (result.ok()) {
      note_served(shard, node);
      return result->as_string();
    }
    if (result.error().code() == ErrorCode::kNotFound) {
      // This replica is reachable but lacks the key (stale or the key is
      // simply absent); another owner may still hold it.
      any_answered = true;
      continue;
    }
    if (result.error().code() != ErrorCode::kUnavailable) {
      return result.error();  // application answer or maybe-executed
    }
    last_error = result.error();
  }
  if (any_answered) {
    return err::not_found("state: no key '" + std::string(key) +
                          "' on any reachable shard owner");
  }
  return Error(ErrorCode::kTimeout, "no owner of shard " + std::to_string(shard) +
                                        " available (" + last_error.message() + ")");
}

Status ShardRoutedChannel::replicate(const dvm::VersionedEntry& entry,
                                     std::span<const std::string> owners,
                                     const std::string& already_applied) {
  // Fan-out of the assigned version to the remaining owners. A leg that
  // fails parks a hint at this channel's origin — replay redelivers it
  // when the owner is back, so the write regains R-replication without
  // waiting for anti-entropy. The write itself is already acknowledged by
  // the coordinating owner, so this never fails the call.
  for (const std::string& owner : owners) {
    if (owner == already_applied) continue;
    if (!channel_to(owner).invoke("vset", dvm::vset_item(entry).params).ok()) {
      dvm_.park_hint(origin_.name(), owner, entry);
    }
  }
  return Status::success();
}

Status ShardRoutedChannel::set(std::string_view key, std::string_view value) {
  const dvm::ShardMap* map = dvm_.shard_map();
  if (map == nullptr) {
    return err::unsupported("shard routing requires the sharded coherency mode");
  }
  const std::size_t shard = map->shard_of(key);
  auto owners = map->owners(shard);
  Error last_error = err::unavailable("shard " + std::to_string(shard) + " has no owners");
  for (const std::string& node : owner_order(shard, owners)) {
    auto result = channel_to(node).invoke("wset", wset_params(key, value));
    if (result.ok()) {
      note_served(shard, node);
      auto reply = result->as_string();
      if (!reply.ok()) return reply.error();
      auto version = parse_version(*reply);
      if (!version.has_value()) {
        return err::internal("bad wset version reply '" + *reply + "'");
      }
      dvm::VersionedEntry entry{std::string(key), std::string(value), *version, false};
      return replicate(entry, owners, node);
    }
    if (result.error().code() != ErrorCode::kUnavailable) {
      return result.error();  // kTimeout: maybe executed, do not double-apply
    }
    last_error = result.error();
  }
  return Error(ErrorCode::kTimeout, "no owner of shard " + std::to_string(shard) +
                                        " available (" + last_error.message() + ")");
}

Status ShardRoutedChannel::set_batch(std::span<const dvm::KV> writes) {
  const dvm::ShardMap* map = dvm_.shard_map();
  if (map == nullptr) {
    return err::unsupported("shard routing requires the sharded coherency mode");
  }
  if (writes.empty()) return Status::success();

  // Group writes by the owner each one routes to (sticky/primary of its
  // shard) so each routed owner receives ONE batched wset frame.
  struct Group {
    std::vector<std::size_t> write_idx;
  };
  std::map<std::string, Group> groups;
  for (std::size_t i = 0; i < writes.size(); ++i) {
    const std::size_t shard = map->shard_of(writes[i].key);
    auto order = owner_order(shard, map->owners(shard));
    if (order.empty()) {
      return Error(ErrorCode::kTimeout,
                   "no owner of shard " + std::to_string(shard) + " available");
    }
    groups[order.front()].write_idx.push_back(i);
  }

  // One replication entry per write, accumulated across groups and sent as
  // batched vset frames per secondary owner at the end (failed legs become
  // hints). Every frame, routed or replicated, carries at most
  // net::kMaxBatchCalls calls: the server refuses a larger one whole.
  std::map<std::string, std::vector<dvm::VersionedEntry>> replication;
  for (auto& [node, group] : groups) {
    const std::span<const std::size_t> all_idx = group.write_idx;
    for (std::size_t first = 0; first < all_idx.size(); first += net::kMaxBatchCalls) {
      const auto frame_idx = all_idx.subspan(
          first, std::min<std::size_t>(net::kMaxBatchCalls, all_idx.size() - first));
      std::vector<net::BatchItem> calls;
      calls.reserve(frame_idx.size());
      for (std::size_t idx : frame_idx) {
        net::BatchItem item;
        item.operation = "wset";
        item.params = wset_params(writes[idx].key, writes[idx].value);
        calls.push_back(std::move(item));
      }
      std::vector<Result<Value>> results;
      Status status = channel_to(node).invoke_batch(calls, results);
      if (!status.ok() && status.error().code() == ErrorCode::kUnavailable) {
        // The whole frame definitely did not execute: re-route each write
        // individually through the owner walk.
        for (std::size_t idx : frame_idx) {
          if (auto one = set(writes[idx].key, writes[idx].value); !one.ok()) return one;
        }
        continue;
      }
      if (!status.ok()) return status;
      for (std::size_t r = 0; r < results.size(); ++r) {
        const std::size_t idx = frame_idx[r];
        if (!results[r].ok()) return results[r].error();
        auto reply = results[r]->as_string();
        if (!reply.ok()) return reply.error();
        auto version = parse_version(*reply);
        if (!version.has_value()) {
          return err::internal("bad wset version reply '" + *reply + "'");
        }
        const std::size_t shard = map->shard_of(writes[idx].key);
        note_served(shard, node);
        dvm::VersionedEntry entry{std::string(writes[idx].key),
                                  std::string(writes[idx].value), *version, false};
        for (const std::string& owner : map->owners(shard)) {
          if (owner == node) continue;
          replication[owner].push_back(entry);
        }
      }
    }
  }
  for (auto& [owner, entries] : replication) {
    const std::span<const dvm::VersionedEntry> all = entries;
    for (std::size_t first = 0; first < all.size(); first += net::kMaxBatchCalls) {
      const auto frame = all.subspan(
          first, std::min<std::size_t>(net::kMaxBatchCalls, all.size() - first));
      std::vector<net::BatchItem> calls;
      calls.reserve(frame.size());
      for (const dvm::VersionedEntry& entry : frame) calls.push_back(dvm::vset_item(entry));
      std::vector<Result<Value>> results;
      if (!channel_to(owner).invoke_batch(calls, results).ok()) {
        // The whole frame missed this owner: park every leg as a hint.
        for (const dvm::VersionedEntry& entry : frame) {
          dvm_.park_hint(origin_.name(), owner, entry);
        }
        continue;
      }
      for (std::size_t r = 0; r < results.size() && r < frame.size(); ++r) {
        if (!results[r].ok()) dvm_.park_hint(origin_.name(), owner, frame[r]);
      }
    }
  }
  return Status::success();
}

std::unique_ptr<net::Channel> make_failover_channel(
    dvm::Dvm& dvm, container::Container& origin, std::string service_name,
    CallPolicy policy, std::vector<wsdl::BindingKind> preference) {
  return std::make_unique<FailoverChannel>(dvm, origin, std::move(service_name),
                                           policy, std::move(preference));
}

}  // namespace h2::resil
