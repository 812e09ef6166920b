#include "emerge/adversary.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace emergence::core {

void Adversary::observe_key(const LayerKeyId& id,
                            const crypto::SymmetricKey& key, sim::Time when) {
  (void)when;
  keys_.emplace(id, key);
}

void Adversary::observe_share(const LayerKeyId& id,
                              const crypto::Share& share, sim::Time when) {
  (void)when;
  auto& bucket = shares_[id];
  // Dedupe on the evaluation point: onion slots receive identical shares.
  const bool duplicate =
      std::any_of(bucket.begin(), bucket.end(), [&](const crypto::Share& s) {
        return s.index == share.index;
      });
  if (!duplicate) bucket.push_back(share);
}

void Adversary::observe_package(BytesView serialized_onion, sim::Time when) {
  (void)when;
  Bytes copy(serialized_onion.begin(), serialized_onion.end());
  const bool known =
      std::any_of(packages_.begin(), packages_.end(),
                  [&](const Bytes& p) { return p == copy; });
  if (!known) packages_.push_back(std::move(copy));
}

void Adversary::observe_secret(BytesView secret, sim::Time when) {
  if (!secret_.has_value()) secret_ = Bytes(secret.begin(), secret.end());
  if (!earliest_secret_.has_value() || when < *earliest_secret_)
    earliest_secret_ = when;
}

std::size_t Adversary::captured_shares() const {
  std::size_t total = 0;
  for (const auto& [id, bucket] : shares_) total += bucket.size();
  return total;
}

bool Adversary::try_reconstruct_keys() {
  bool progress = false;
  for (const auto& [id, bucket] : shares_) {
    if (keys_.count(id) > 0) continue;
    if (bucket.size() < config_.share_threshold_m) continue;
    try {
      const Bytes raw =
          crypto::shamir_combine(bucket, config_.share_threshold_m);
      if (raw.size() != 32) continue;  // not a layer key
      keys_.emplace(id, crypto::SymmetricKey::from_bytes(raw));
      progress = true;
    } catch (const Error&) {
      continue;  // inconsistent share lengths etc.
    }
  }
  return progress;
}

std::optional<Bytes> Adversary::attempt_restore(sim::Time now) {
  if (secret_.has_value()) return secret_;

  // Iterate opening envelopes / reconstructing keys to a fixpoint. Each
  // round may add inner onions (new packages) and shares (from envelopes),
  // which may unlock further layers.
  bool progress = true;
  while (progress && !secret_.has_value()) {
    progress = try_reconstruct_keys();

    std::vector<Bytes> discovered;
    for (const Bytes& raw : packages_) {
      ColumnOnion onion;
      try {
        onion = parse_column_onion(raw);
      } catch (const Error&) {
        continue;  // garbage capture
      }
      for (const auto& [holder_index, sealed] : onion.envelopes) {
        const LayerKeyId id{
            onion.column,
            holder_index < config_.onion_slots_k
                ? LayerKeyId::kSharedHolder
                : holder_index};
        auto key_it = keys_.find(id);
        if (key_it == keys_.end()) continue;
        EnvelopeContent content;
        try {
          content = open_envelope(key_it->second, sealed, onion.column);
        } catch (const Error&) {
          continue;
        }
        if (!content.terminal_payload.empty()) {
          observe_secret(content.terminal_payload, now);
          return secret_;
        }
        for (const TargetedShare& ts : content.shares) {
          const LayerKeyId share_key{
              static_cast<std::uint16_t>(onion.column + 1),
              ts.target_index < config_.onion_slots_k
                  ? LayerKeyId::kSharedHolder
                  : ts.target_index};
          const std::size_t before = shares_[share_key].size();
          observe_share(share_key, ts.share, now);
          if (shares_[share_key].size() != before) progress = true;
        }
        // The opened envelope's transport key unwraps this column's sealed
        // inner onion -- the only way to descend a layer.
        if (!content.inner_key.empty() && !onion.inner.empty()) {
          try {
            discovered.push_back(unwrap_inner(content.inner_key, onion.inner,
                                              onion.column));
          } catch (const Error&) {
          }
        }
      }
    }
    for (Bytes& inner : discovered) {
      const bool known = std::any_of(
          packages_.begin(), packages_.end(),
          [&](const Bytes& p) { return p == inner; });
      if (!known) {
        packages_.push_back(std::move(inner));
        progress = true;
      }
    }
  }
  return secret_;
}

}  // namespace emergence::core
