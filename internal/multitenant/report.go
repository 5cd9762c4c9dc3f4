package multitenant

import (
	"fmt"
	"strings"
)

// RenderReport renders a MixResult as the deterministic full report the
// determinism harnesses byte-compare: configuration, the complete
// admission/scheduling trace, every job's fate in submission order, the
// aggregated per-tenant counters and the run totals. Two runs with the
// same conf must render byte-identical reports whatever the task
// parallelism.
func RenderReport(res *MixResult) string {
	var b strings.Builder
	c := res.Conf
	fmt.Fprintf(&b, "# multitenant mix: %d tenants, policy=%s seed=%d\n",
		len(c.Tenants), c.Policy, c.Seed)
	fmt.Fprintf(&b, "dram_budget=%dB size=%s tiering=%q\n",
		c.DRAMBudgetBytes, c.Size, string(c.Tiering))
	for _, t := range c.Tenants {
		fmt.Fprintf(&b, "tenant %-10s weight=%d jobs=%d fast_quota=%dB slow_quota=%dB\n",
			t.Name, t.Weight, t.Jobs, t.FastQuotaBytes, t.SlowQuotaBytes)
	}

	b.WriteString("\n## trace\n")
	for _, line := range res.Trace {
		b.WriteString(line)
		b.WriteByte('\n')
	}

	b.WriteString("\n## jobs\n")
	for _, r := range res.Jobs {
		fmt.Fprintf(&b, "%-28s %-15s", r.Job.String(), r.Outcome)
		if r.Admitted {
			fmt.Fprintf(&b, " admit=%dns done=%dns dur=%dns records=%d spilled=%d/%dB",
				int64(r.AdmitAt), int64(r.DoneAt), int64(r.Duration),
				r.Records, r.SpilledBlocks, r.SpilledBytes)
			if r.Queued {
				fmt.Fprintf(&b, " queue_wait=%dns", int64(r.QueueWait))
			}
		}
		if r.Err != nil {
			fmt.Fprintf(&b, " err=%q", r.Err.Error())
		}
		b.WriteByte('\n')
	}

	b.WriteString("\n## counters\n")
	for _, name := range res.Registry.Names() {
		fmt.Fprintf(&b, "%s = %d\n", name, res.Registry.Get(name))
	}

	b.WriteString("\n## totals\n")
	fmt.Fprintf(&b, "makespan=%dns admitted=%d rejected=%d completed=%d failed=%d queued=%d\n",
		int64(res.Makespan), res.Admitted, res.Rejected, res.Completed, res.Failed, res.QueuedJobs)
	fmt.Fprintf(&b, "spilled=%d blocks / %d B, refused_moves=%d\n",
		res.SpilledBlocks, res.SpilledBytes, res.RefusedMoves)
	return b.String()
}
