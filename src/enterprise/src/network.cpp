#include "patchsec/enterprise/network.hpp"

#include <cctype>
#include <stdexcept>

#include "patchsec/nvd/database.hpp"

namespace patchsec::enterprise {

ReachabilityPolicy ReachabilityPolicy::three_tier() {
  ReachabilityPolicy p;
  p.attacker_reaches = [](ServerRole role) {
    return role == ServerRole::kDns || role == ServerRole::kWeb;
  };
  p.reaches = [](ServerRole from, ServerRole to) {
    switch (from) {
      case ServerRole::kDns: return to == ServerRole::kWeb;
      case ServerRole::kWeb: return to == ServerRole::kApp;
      case ServerRole::kApp: return to == ServerRole::kDb;
      case ServerRole::kDb: return false;
    }
    return false;
  };
  p.target_role = ServerRole::kDb;
  return p;
}

NetworkModel::NetworkModel(RedundancyDesign design, std::map<ServerRole, ServerSpec> specs,
                           ReachabilityPolicy policy)
    : design_(design), specs_(std::move(specs)), policy_(std::move(policy)) {
  for (ServerRole role : {ServerRole::kDns, ServerRole::kWeb, ServerRole::kApp, ServerRole::kDb}) {
    if (design_.count(role) > 0 && specs_.find(role) == specs_.end()) {
      throw std::invalid_argument(std::string("missing server spec for role ") + to_string(role));
    }
  }
  if (!policy_.attacker_reaches || !policy_.reaches) {
    throw std::invalid_argument("reachability policy is incomplete");
  }
}

const ServerSpec& NetworkModel::spec(ServerRole role) const {
  const auto it = specs_.find(role);
  if (it == specs_.end()) throw std::out_of_range("no spec for role");
  return it->second;
}

std::size_t NetworkModel::exploitable_vulnerability_count() const {
  std::size_t total = 0;
  for (const auto& [role, spec] : specs_) {
    total += spec.exploitable_count() * design_.count(role);
  }
  return total;
}

harm::Harm NetworkModel::build_harm() const {
  harm::AttackGraph graph;
  const harm::GraphNodeId attacker = graph.add_node("attacker");
  graph.set_attacker(attacker);

  static constexpr std::array<ServerRole, kRoleCount> kOrder{
      ServerRole::kDns, ServerRole::kWeb, ServerRole::kApp, ServerRole::kDb};

  // Instantiate per-instance nodes: "dns1", "web1", "web2", ...
  std::map<ServerRole, std::vector<harm::GraphNodeId>> instances;
  for (ServerRole role : kOrder) {
    std::string base = to_string(role);
    for (char& c : base) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    for (unsigned i = 1; i <= design_.count(role); ++i) {
      instances[role].push_back(graph.add_node(base + std::to_string(i)));
    }
  }

  for (ServerRole role : kOrder) {
    if (policy_.attacker_reaches(role)) {
      for (harm::GraphNodeId n : instances[role]) graph.add_edge(attacker, n);
    }
  }
  for (ServerRole from : kOrder) {
    for (ServerRole to : kOrder) {
      if (from == to || !policy_.reaches(from, to)) continue;
      for (harm::GraphNodeId a : instances[from]) {
        for (harm::GraphNodeId b : instances[to]) graph.add_edge(a, b);
      }
    }
  }
  for (harm::GraphNodeId n : instances[policy_.target_role]) graph.add_target(n);

  // The instances of a role share its tree and its role-level reachability
  // (the policy has no same-role edges), so each role is one replica group.
  harm::Harm model(std::move(graph));
  for (ServerRole role : kOrder) {
    if (!instances[role].empty()) model.attach_replicas(instances[role], spec(role).attack_tree);
  }
  return model;
}

std::string role_label(const std::string& node_name) {
  std::size_t end = node_name.size();
  while (end > 0 && std::isdigit(static_cast<unsigned char>(node_name[end - 1])) != 0) --end;
  return node_name.substr(0, end);
}

NetworkModel NetworkModel::with_design(const RedundancyDesign& design) const {
  return NetworkModel(design, specs_, policy_);
}

namespace {

nvd::Vulnerability lookup(const nvd::VulnerabilityDatabase& db, const std::string& cve,
                          const std::string& product) {
  for (const nvd::Vulnerability& v : db.all()) {
    if (v.cve_id == cve && v.product == product) return v;
  }
  throw std::out_of_range("paper database is missing " + cve + " on " + product);
}

}  // namespace

std::map<ServerRole, ServerSpec> paper_server_specs() {
  const nvd::VulnerabilityDatabase db = nvd::make_paper_database();
  std::map<ServerRole, ServerSpec> specs;

  {  // DNS: Windows Server 2012 R2 + Microsoft DNS.  AT = v1dns.
    ServerSpec s;
    s.role = ServerRole::kDns;
    s.os_name = "Windows Server 2012 R2";
    s.service_name = "Microsoft DNS";
    const auto v1 = lookup(db, "CVE-2016-3227", "Microsoft DNS");
    s.vulnerabilities = {v1, lookup(db, "NVD-WIN2012R2-CRIT-1", "Windows Server 2012 R2"),
                         lookup(db, "NVD-WIN2012R2-CRIT-2", "Windows Server 2012 R2")};
    s.attack_tree = harm::make_or_tree({v1});
    specs.emplace(ServerRole::kDns, std::move(s));
  }
  {  // Web: RHEL + Apache HTTP.  AT = OR(v1, v2, v3, AND(v4, v5)).
    ServerSpec s;
    s.role = ServerRole::kWeb;
    s.os_name = "Red Hat Enterprise Linux";
    s.service_name = "Apache HTTP";
    const auto v1 = lookup(db, "CVE-2016-4448", "libxml2 (RHEL)");
    const auto v2 = lookup(db, "CVE-2015-4602", "PHP");
    const auto v3 = lookup(db, "CVE-2015-4603", "PHP");
    const auto v4 = lookup(db, "CVE-2016-4979", "Apache HTTP");
    const auto v5 = lookup(db, "CVE-2016-4805", "Linux kernel (RHEL)");
    s.vulnerabilities = {v1, v2, v3, v4, v5};
    s.attack_tree = harm::make_or_tree({v1, v2, v3}, {{v4, v5}});
    specs.emplace(ServerRole::kWeb, std::move(s));
  }
  {  // App: Oracle Linux 7 + WebLogic.  AT = OR(v1, v2, v3, AND(v4, v5)).
    ServerSpec s;
    s.role = ServerRole::kApp;
    s.os_name = "Oracle Linux 7";
    s.service_name = "Oracle WebLogic";
    const auto v1 = lookup(db, "CVE-2016-3586", "Oracle WebLogic");
    const auto v2 = lookup(db, "CVE-2016-3510", "Oracle WebLogic");
    const auto v3 = lookup(db, "CVE-2016-3499", "Oracle WebLogic");
    const auto v4 = lookup(db, "CVE-2016-0638", "Oracle WebLogic");
    const auto v5 = lookup(db, "CVE-2016-4997", "Linux kernel (Oracle Linux 7, app tier)");
    s.vulnerabilities = {v1,
                         v2,
                         v3,
                         v4,
                         v5,
                         lookup(db, "NVD-OL7-APP-CRIT-1", "Oracle Linux 7 (app tier)"),
                         lookup(db, "NVD-OL7-APP-CRIT-2", "Oracle Linux 7 (app tier)"),
                         lookup(db, "NVD-OL7-APP-CRIT-3", "Oracle Linux 7 (app tier)")};
    s.attack_tree = harm::make_or_tree({v1, v2, v3}, {{v4, v5}});
    specs.emplace(ServerRole::kApp, std::move(s));
  }
  {  // DB: Oracle Linux 7 + MySQL.  AT = OR(v1, v2, AND(v3, v4), v5).
    ServerSpec s;
    s.role = ServerRole::kDb;
    s.os_name = "Oracle Linux 7";
    s.service_name = "MySQL";
    const auto v1 = lookup(db, "CVE-2016-6662", "MySQL");
    const auto v2 = lookup(db, "CVE-2016-0639", "MySQL");
    const auto v3 = lookup(db, "CVE-2015-3152", "MySQL");
    const auto v4 = lookup(db, "CVE-2016-3471", "MySQL");
    const auto v5 = lookup(db, "CVE-2016-4997", "Linux kernel (Oracle Linux 7, db tier)");
    s.vulnerabilities = {v1,
                         v2,
                         v3,
                         v4,
                         v5,
                         lookup(db, "NVD-OL7-DB-CRIT-1", "Oracle Linux 7 (db tier)"),
                         lookup(db, "NVD-OL7-DB-CRIT-2", "Oracle Linux 7 (db tier)"),
                         lookup(db, "NVD-OL7-DB-CRIT-3", "Oracle Linux 7 (db tier)")};
    s.attack_tree = harm::make_or_tree({v1, v2}, {{v3, v4}, {v5}});
    specs.emplace(ServerRole::kDb, std::move(s));
  }
  return specs;
}

NetworkModel example_network() { return paper_network(example_network_design()); }

NetworkModel paper_network(const RedundancyDesign& design) {
  return NetworkModel(design, paper_server_specs(), ReachabilityPolicy::three_tier());
}

}  // namespace patchsec::enterprise
