#pragma once
// The enterprise network model: a redundancy design instantiated with server
// specs under a reachability policy (who can talk to whom through the
// firewalls), and the construction of the two-layer HARM from it.
//
// The paper's 3-tier topology (Fig. 2):
//   internet -> { DNS DMZ, web DMZ }          (external firewall)
//   web tier -> application tier -> database  (internal firewall)
//   DNS servers can also reach the web tier (they resolve for clients that
//   then hit the web servers; in the HARM the dns node precedes web nodes —
//   visible in Fig. 3(a): A -> dns1 -> web -> app -> db and A -> web).

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "patchsec/enterprise/design.hpp"
#include "patchsec/enterprise/server.hpp"
#include "patchsec/harm/harm.hpp"

namespace patchsec::enterprise {

/// Reachability policy between tiers.  Encapsulates the firewall rules of
/// Fig. 2 but can be replaced for other topologies.
struct ReachabilityPolicy {
  /// Can the external attacker reach servers of this role directly?
  std::function<bool(ServerRole)> attacker_reaches;
  /// Can a compromised server of role `from` reach servers of role `to`?
  std::function<bool(ServerRole from, ServerRole to)> reaches;
  /// Which role hosts the attack target (the paper: database servers).
  ServerRole target_role = ServerRole::kDb;

  /// The paper's 3-tier policy.
  [[nodiscard]] static ReachabilityPolicy three_tier();
};

/// A concrete network: one spec per role plus instance counts.
class NetworkModel {
 public:
  NetworkModel(RedundancyDesign design, std::map<ServerRole, ServerSpec> specs,
               ReachabilityPolicy policy);

  [[nodiscard]] const RedundancyDesign& design() const noexcept { return design_; }
  [[nodiscard]] const ServerSpec& spec(ServerRole role) const;
  [[nodiscard]] const ReachabilityPolicy& policy() const noexcept { return policy_; }

  /// Total exploitable vulnerabilities across all server instances.
  [[nodiscard]] std::size_t exploitable_vulnerability_count() const;

  /// Construct the two-layer HARM (Fig. 3 shape) with per-instance node
  /// names "dns1", "web2", ... (see role_label).
  [[nodiscard]] harm::Harm build_harm() const;

  /// Same network with a different redundancy design (identical specs).
  [[nodiscard]] NetworkModel with_design(const RedundancyDesign& design) const;

 private:
  RedundancyDesign design_;
  std::map<ServerRole, ServerSpec> specs_;
  ReachabilityPolicy policy_;
};

/// "web2" -> "web": the role label of a NetworkModel::build_harm node, whose
/// instances are named lower-cased role + 1-based index.  The labeler that
/// groups a design's attack paths into role classes
/// (harm::aggregate_path_classes).
[[nodiscard]] std::string role_label(const std::string& node_name);

/// The paper's case-study server specs built from the NVD snapshot: Windows
/// 2012 R2 + Microsoft DNS, RHEL + Apache HTTP (with PHP/libxml2), Oracle
/// Linux 7 + WebLogic, Oracle Linux 7 + MySQL — attack trees matching the
/// Fig. 3 lower layer.
[[nodiscard]] std::map<ServerRole, ServerSpec> paper_server_specs();

/// Fig. 2 example network: paper specs, 1 DNS + 2 WEB + 2 APP + 1 DB.
[[nodiscard]] NetworkModel example_network();

/// Paper specs with an arbitrary design (used to sweep the five designs).
[[nodiscard]] NetworkModel paper_network(const RedundancyDesign& design);

}  // namespace patchsec::enterprise
