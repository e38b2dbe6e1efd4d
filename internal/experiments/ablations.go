package experiments

import (
	"fmt"
	"strings"

	"repro/internal/clock"
	"repro/internal/ethernet"
	"repro/internal/fame"
	"repro/internal/pfa"
	"repro/internal/softstack"
	"repro/internal/stats"
	"repro/internal/switchmodel"
)

func init() {
	register("ablation-newq", func(sc Scale) (Result, error) { return AblationNewQ(sc) })
	register("ablation-switchbuf", func(sc Scale) (Result, error) { return AblationSwitchBuf(sc) })
}

// AblationNewQRow is one newQ batch-size point.
type AblationNewQRow struct {
	Batch         int
	RuntimeUs     float64
	MetaRatioVsSW float64
}

// AblationNewQResult sweeps the PFA's newQ pop batch size, the design
// choice behind the paper's 2.5x metadata-time reduction: popping
// descriptors one at a time forfeits the OS cache locality that batching
// buys.
type AblationNewQResult struct {
	SWRuntimeUs float64
	Rows        []AblationNewQRow
}

// Title implements Result.
func (AblationNewQResult) Title() string {
	return "Ablation: PFA newQ batch size (Section VI design choice)"
}

// Render implements Result.
func (r AblationNewQResult) Render() string {
	t := stats.NewTable("newQ batch", "PFA runtime (us)", "SW/PFA metadata ratio")
	for _, row := range r.Rows {
		t.AddRow(row.Batch, row.RuntimeUs, row.MetaRatioVsSW)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "software-paging baseline runtime: %.0f us\n\n", r.SWRuntimeUs)
	b.WriteString(t.String())
	b.WriteString("\nBatching new-page descriptors amortises OS metadata work; the paper's\n" +
		"design pops them in batches and measures ~2.5x less metadata time.\n")
	return b.String()
}

// AblationNewQ runs Genome at 50% local memory across newQ batch sizes.
func AblationNewQ(sc Scale) (AblationNewQResult, error) {
	pages := uint64(2048)
	accesses := 20000
	batches := []int{1, 8, 64, 256}
	if sc.Quick {
		pages = 1024
		accesses = 6000
		batches = []int{1, 64}
	}
	mk := func() pfa.AccessPattern { return pfa.NewGenomePattern(pages, accesses, 11) }

	swRes, err := fig11Run(pfa.SoftwarePaging, int(pages)/2, mk(), pfa.PagingCosts{})
	if err != nil {
		return AblationNewQResult{}, err
	}
	out := AblationNewQResult{SWRuntimeUs: float64(swRes.Runtime) / 3200}
	for _, batch := range batches {
		costs := pfa.DefaultPagingCosts(clock.DefaultTargetClock)
		costs.NewQBatch = batch
		if batch == 1 {
			// Per-page pops get no locality benefit: same cost as the
			// software path's metadata management.
			costs.MetaPerPageBatched = costs.MetaPerPage
		}
		res, err := fig11Run(pfa.PFAMode, int(pages)/2, mk(), costs)
		if err != nil {
			return AblationNewQResult{}, err
		}
		row := AblationNewQRow{Batch: batch, RuntimeUs: float64(res.Runtime) / 3200}
		if res.MetadataTime > 0 {
			row.MetaRatioVsSW = float64(swRes.MetadataTime) / float64(res.MetadataTime)
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// AblationSwitchBufRow is one output-buffer-size point.
type AblationSwitchBufRow struct {
	BufferKiB int
	DropsBuf  uint64
	Delivered uint64
}

// AblationSwitchBufResult sweeps switch output buffering under incast
// congestion (four full-rate senders to one receiver), the buffer-sizing
// design choice of Section III-B1: congestion is modeled by packets not
// being releasable, and drops occur at full-packet granularity when the
// output buffer bound is hit.
type AblationSwitchBufResult struct {
	Rows []AblationSwitchBufRow
}

// Title implements Result.
func (AblationSwitchBufResult) Title() string {
	return "Ablation: switch output buffer under incast (Section III-B1 design choice)"
}

// Render implements Result.
func (r AblationSwitchBufResult) Render() string {
	t := stats.NewTable("Output buffer (KiB)", "Packets delivered", "Buffer drops")
	for _, row := range r.Rows {
		t.AddRow(row.BufferKiB, row.Delivered, row.DropsBuf)
	}
	var b strings.Builder
	b.WriteString(t.String())
	b.WriteString("\nSmaller buffers drop whole packets under 4:1 incast; larger buffers absorb\n" +
		"the burst at the cost of queueing delay.\n")
	return b.String()
}

// AblationSwitchBuf runs a 4:1 incast against varying output buffers.
func AblationSwitchBuf(sc Scale) (AblationSwitchBufResult, error) {
	buffers := []int{8, 32, 128, 512}
	if sc.Quick {
		buffers = []int{8, 512}
	}
	var out AblationSwitchBufResult
	for _, kib := range buffers {
		res, err := incastRun(kib << 10)
		if err != nil {
			return AblationSwitchBufResult{}, err
		}
		res.BufferKiB = kib
		out.Rows = append(out.Rows, res)
	}
	return out, nil
}

// incastRun drives four full-rate raw streams at one receiver through a
// switch with the given output buffer bound and reports deliveries and
// drops.
func incastRun(bufBytes int) (AblationSwitchBufRow, error) {
	sw := switchmodel.New(switchmodel.Config{
		Name:              "tor",
		Ports:             5,
		OutputBufferBytes: bufBytes,
	})
	r := fame.NewRunner()
	r.Add(sw)
	nodes := make([]*softstack.Node, 5)
	const linkLat = 6400
	for i := range nodes {
		nodes[i] = softstack.NewNode(softstack.Config{
			Name: fmt.Sprintf("n%d", i),
			MAC:  ethernet.MAC(0x10 + i),
			IP:   ethernet.IP(0x0a000010 + i),
		})
		r.Add(nodes[i])
		sw.MACTable().Set(nodes[i].MAC(), i)
		if err := r.Connect(nodes[i], 0, sw, i, linkLat); err != nil {
			return AblationSwitchBufRow{}, err
		}
	}
	const dur = 1_600_000 // 500 us of 4:1 incast
	for i := 0; i < 4; i++ {
		nodes[i].StartRawStream(0, nodes[4].MAC(), 1504, 200, dur)
	}
	if err := r.Run(dur + 32*linkLat); err != nil {
		return AblationSwitchBufRow{}, err
	}
	return AblationSwitchBufRow{
		Delivered: nodes[4].Stats().FramesRecv,
		DropsBuf:  sw.Stats().DropsBufFull,
	}, nil
}
