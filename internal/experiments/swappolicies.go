package experiments

import (
	"fmt"

	"grads/internal/topology"
)

// SwapPolicyResult is one policy's outcome on the Figure 4 scenario.
type SwapPolicyResult struct {
	Policy     string
	Completion float64 // 0 when the horizon was hit before finishing
	Swaps      int
}

// RunSwapPolicies replays the §4.2 scenario under each swapping policy —
// the policy study of the cited HPDC-12 paper ("we have designed and
// evaluated several policies"): no swapping, per-machine greedy, threshold,
// and the gang policy that moves the whole synchronized active set.
func RunSwapPolicies(o Options, cfg Fig4Config) ([]SwapPolicyResult, error) {
	var out []SwapPolicyResult
	for _, policy := range []string{"none", "greedy", "threshold", "gang"} {
		rt, done, err := fig4Run(o, cfg, policy, topology.MicroGridTestbed)
		if err != nil {
			return nil, fmt.Errorf("swap policy %s: %w", policy, err)
		}
		out = append(out, SwapPolicyResult{
			Policy:     policy,
			Completion: done,
			Swaps:      rt.Swaps(),
		})
	}
	return out, nil
}

// FormatSwapPolicies renders the policy comparison.
func FormatSwapPolicies(results []SwapPolicyResult) string {
	t := &Table{Header: []string{"policy", "completion(s)", "swaps"}}
	for _, r := range results {
		c := "horizon"
		if r.Completion > 0 {
			c = Secs(r.Completion)
		}
		t.Add(r.Policy, c, fmt.Sprintf("%d", r.Swaps))
	}
	return t.String()
}
