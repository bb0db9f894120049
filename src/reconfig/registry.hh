/**
 * @file
 * Pluggable controller-policy registry.
 *
 * Every reconfiguration policy is constructed through one narrow API:
 * makeController(name, params) returns a ControllerHandle pairing a
 * factory with a *canonical key* that uniquely identifies the
 * controller the factory builds. The key is what closes the plan.hh
 * gap: a bare std::function factory is opaque, so points built from
 * one can never share warmups, be checkpointed, or be served from the
 * content-addressed result cache. A handle's key is never empty, and
 * two handles build identical controllers iff their keys are equal.
 *
 * Canonical keys have the form `policy{k=v;...}` with every parameter
 * of the policy spelled out at its effective (defaulted) value in
 * sorted order, so a caller relying on a default and a caller passing
 * it explicitly get the same key.
 *
 * Built-in policies (see controllerPolicies() for the live list):
 *
 *   static          active=<n>
 *   ivl-explore     interval, max-interval        (Figure 4)
 *   ivl-ilp         interval, distant-per-mille   (Section 4.3)
 *   fg-branch       stride, samples               (Section 4.4)
 *   fg-subroutine   samples                       (Section 4.4)
 *   ineffectuality  interval, waste, gate, ungate
 *
 * Policies whose construction needs more than parameter strings (the
 * offline oracle probes the workload first) register themselves at
 * runtime via registerControllerPolicy() -- see sim/oracle_policy.hh.
 */

#ifndef CLUSTERSIM_RECONFIG_REGISTRY_HH
#define CLUSTERSIM_RECONFIG_REGISTRY_HH

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "reconfig/controller.hh"

namespace clustersim {

/** Policy parameters: name -> value, both strings. Unknown names are
 *  errors (they are typos, not extensions). */
using PolicyParams = std::map<std::string, std::string>;

/** A constructible controller identity: canonical key + factory. */
struct ControllerHandle {
    /** Canonical `policy{k=v;...}` key; never empty. */
    std::string key;
    /** Builds a fresh controller; thread-safe and reusable. */
    std::function<std::unique_ptr<ReconfigController>()> make;
};

/**
 * Build the handle for a named policy. An unknown policy name, an
 * unknown parameter name or an unparsable value is a user error:
 * fatal() throws SimError.
 */
ControllerHandle makeController(const std::string &policy,
                                const PolicyParams &params = {});

/**
 * Canonical spelling of a real-valued parameter in a key: the shortest
 * decimal that parses back to exactly `v` (0.3, 80, 10000, 1e+06).
 * Distinct values get distinct spellings, however close they are.
 */
std::string canonicalNumber(double v);

/** Registered policy names, sorted; built-ins plus runtime additions. */
std::vector<std::string> controllerPolicies();

/** Whether `name` is a registered policy. */
bool isControllerPolicy(const std::string &name);

/**
 * Register (or replace) a policy under `name`. The builder receives
 * the caller's params and returns a complete handle; it must produce
 * a canonical non-empty key. Used by policies that need machinery
 * above this layer (the offline oracle lives in sim/). Thread-safe.
 */
void registerControllerPolicy(
    const std::string &name,
    std::function<ControllerHandle(const PolicyParams &)> build);

} // namespace clustersim

#endif // CLUSTERSIM_RECONFIG_REGISTRY_HH
