#include "workload/workload.h"

#include <cmath>
#include <utility>

#include "common/random.h"
#include "label/labeling.h"
#include "pul/pul_io.h"
#include "workload/pul_generator.h"
#include "xmark/generator.h"
#include "xml/parser.h"

namespace xupdate::workload {

namespace {

// Mixes a tenant index into the stream seed so tenants get independent
// but reproducible generators.
uint64_t TenantSeed(uint64_t seed, size_t tenant, uint64_t salt) {
  return seed ^ (0x9e3779b97f4a7c15ull * (tenant + 1)) ^ salt;
}

}  // namespace

Result<Workload> GenerateWorkload(const WorkloadOptions& options) {
  if (options.num_tenants == 0) {
    return Status::InvalidArgument("workload needs at least one tenant");
  }
  if (options.num_items == 0) {
    return Status::InvalidArgument("workload needs at least one item");
  }
  double mix_sum = options.commit_weight + options.checkout_weight +
                   options.reduce_weight + options.stat_weight;
  if (!(options.commit_weight >= 0) || !(options.checkout_weight >= 0) ||
      !(options.reduce_weight >= 0) || !(options.stat_weight >= 0) ||
      !(mix_sum > 0)) {
    return Status::InvalidArgument(
        "operation mix weights must be non-negative with a positive sum");
  }
  if (options.arrival_rate < 0 || !std::isfinite(options.arrival_rate)) {
    return Status::InvalidArgument("arrival rate must be >= 0");
  }
  if (options.zipf_theta < 0 || !std::isfinite(options.zipf_theta)) {
    return Status::InvalidArgument("zipf theta must be >= 0");
  }

  Rng rng(options.seed);
  std::vector<double> tenant_weights(options.num_tenants);
  for (size_t r = 0; r < options.num_tenants; ++r) {
    tenant_weights[r] = 1.0 / std::pow(static_cast<double>(r + 1),
                                       options.zipf_theta);
  }
  const std::vector<double> mix = {options.commit_weight,
                                   options.checkout_weight,
                                   options.reduce_weight,
                                   options.stat_weight};

  // Pass 1: shape of the stream — tenant, type, arrival — so each
  // tenant's commit count is known before its PUL chain is generated.
  Workload out;
  out.items.resize(options.num_items);
  std::vector<size_t> commits_per_tenant(options.num_tenants, 0);
  std::vector<size_t> reduces_per_tenant(options.num_tenants, 0);
  double clock = 0.0;
  uint64_t next_id = 0;
  for (WorkloadItem& item : out.items) {
    item.id = next_id++;
    item.tenant = rng.WeightedIndex(tenant_weights);
    item.type = static_cast<ItemType>(rng.WeightedIndex(mix));
    if (options.arrival_rate > 0) {
      clock += -std::log(1.0 - rng.NextDouble()) / options.arrival_rate;
    }
    item.arrival_seconds = clock;
    switch (item.type) {
      case ItemType::kCommit:
        item.expected_version = ++commits_per_tenant[item.tenant];
        break;
      case ItemType::kCheckout:
        // The tenant's state after the commits already in the stream —
        // deterministic under FIFO request order on one connection.
        item.version = commits_per_tenant[item.tenant];
        break;
      case ItemType::kReduce:
        ++reduces_per_tenant[item.tenant];
        break;
      case ItemType::kStat:
        break;
    }
  }

  // Pass 2: per-tenant documents and PUL chains.
  out.tenants.reserve(options.num_tenants);
  out.initial_xml.reserve(options.num_tenants);
  std::vector<std::vector<std::string>> commit_chains(options.num_tenants);
  std::vector<std::vector<std::string>> reduce_puls(options.num_tenants);
  for (size_t t = 0; t < options.num_tenants; ++t) {
    out.tenants.push_back(std::string("t").append(std::to_string(t)));
    xmark::Config config;
    config.seed = TenantSeed(options.seed, t, 0);
    config.target_bytes = options.doc_bytes;
    XUPDATE_ASSIGN_OR_RETURN(std::string text,
                             xmark::GenerateDocumentText(config));
    // Parse the serialized form back — the exact bytes the server's
    // kOpen will parse — so driver-side replays see identical node ids.
    XUPDATE_ASSIGN_OR_RETURN(xml::Document doc, xml::ParseDocument(text));
    out.initial_xml.push_back(std::move(text));
    label::Labeling labeling = label::Labeling::Build(doc);

    if (commits_per_tenant[t] > 0) {
      PulGenerator generator(doc, labeling, TenantSeed(options.seed, t, 1));
      PulGenerator::SequenceOptions seq;
      seq.num_puls = commits_per_tenant[t];
      seq.ops_per_pul = options.ops_per_pul;
      XUPDATE_ASSIGN_OR_RETURN(std::vector<pul::Pul> chain,
                               generator.GenerateSequence(seq));
      commit_chains[t].reserve(chain.size());
      for (const pul::Pul& pul : chain) {
        XUPDATE_ASSIGN_OR_RETURN(std::string xml, pul::SerializePul(pul));
        commit_chains[t].push_back(std::move(xml));
      }
    }
    if (reduces_per_tenant[t] > 0) {
      PulGenerator generator(doc, labeling, TenantSeed(options.seed, t, 2));
      PulGenerator::PulOptions popts;
      popts.num_ops = options.ops_per_pul;
      popts.reducible_fraction = options.reducible_fraction;
      reduce_puls[t].reserve(reduces_per_tenant[t]);
      for (size_t i = 0; i < reduces_per_tenant[t]; ++i) {
        XUPDATE_ASSIGN_OR_RETURN(pul::Pul pul, generator.Generate(popts));
        XUPDATE_ASSIGN_OR_RETURN(std::string xml, pul::SerializePul(pul));
        reduce_puls[t].push_back(std::move(xml));
      }
    }
  }

  // Pass 3: attach the payloads in stream order.
  std::vector<size_t> commit_cursor(options.num_tenants, 0);
  std::vector<size_t> reduce_cursor(options.num_tenants, 0);
  for (WorkloadItem& item : out.items) {
    if (item.type == ItemType::kCommit) {
      item.pul_xml = commit_chains[item.tenant][commit_cursor[item.tenant]++];
    } else if (item.type == ItemType::kReduce) {
      item.pul_xml = reduce_puls[item.tenant][reduce_cursor[item.tenant]++];
    }
  }
  return out;
}

}  // namespace xupdate::workload
