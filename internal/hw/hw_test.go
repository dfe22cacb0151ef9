package hw

import (
	"testing"
	"testing/quick"

	"photon/internal/nn"
)

func TestCalcBatchSize125MOnH100(t *testing.T) {
	// The paper trains 125M on a single H100 with hardware batch 32; the
	// heuristic should land at a comparable power of two.
	b := CalcBatchSize(nn.Config125M, H100, 1)
	if b < 16 || b > 64 {
		t.Fatalf("125M/H100 batch: got %d, want 16..64 (paper uses 32)", b)
	}
	if b&(b-1) != 0 {
		t.Fatalf("batch %d not a power of two", b)
	}
}

func Test7BDoesNotFitSingleGPU(t *testing.T) {
	if FitsSingleGPU(nn.Config7B, H100) {
		t.Fatal("7B with AdamW state cannot fit one 80GiB GPU")
	}
	// But it fits a paper-style 8xH100 client.
	if CalcBatchSize(nn.Config7B, H100, 8) < 1 {
		t.Fatal("7B should fit 8 pooled H100s")
	}
}

func TestCalcBatchSizeDegenerate(t *testing.T) {
	if CalcBatchSize(nn.Config125M, H100, 0) != 0 {
		t.Fatal("0 GPUs must yield batch 0")
	}
	tiny := GPU{Name: "toy", VRAMGiB: 0.001, PeakTFLOPS: 1}
	if CalcBatchSize(nn.Config125M, tiny, 1) != 0 {
		t.Fatal("model larger than VRAM must yield batch 0")
	}
}

func TestCalcBatchSizeMonotoneInGPUs(t *testing.T) {
	f := func(nRaw uint8) bool {
		n := 1 + int(nRaw)%8
		b1 := CalcBatchSize(nn.Config1B, H100, n)
		b2 := CalcBatchSize(nn.Config1B, H100, n+1)
		return b2 >= b1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestSelectStrategy(t *testing.T) {
	oneGPU := Silo{Region: "a", Nodes: []Node{{GPUs: []GPU{H100}, IntraGPU: PCIe}}}
	multiGPU := Silo{Region: "b", Nodes: []Node{{GPUs: []GPU{H100, H100, H100, H100}, IntraGPU: NVLink}}}
	multiNodeRDMA := Silo{Region: "c", InterNode: InfiniBand,
		Nodes: []Node{{GPUs: []GPU{H100, H100}}, {GPUs: []GPU{H100, H100}}}}
	multiNodeSlow := Silo{Region: "d", InterNode: Ethernet,
		Nodes: []Node{{GPUs: []GPU{H100, H100}}, {GPUs: []GPU{H100, H100}}}}

	cases := []struct {
		cfg  nn.Config
		silo Silo
		want Strategy
	}{
		{nn.Config125M, oneGPU, StrategySingleGPU},
		{nn.Config125M, multiGPU, StrategyDDP},
		{nn.Config7B, multiGPU, StrategyFSDP}, // 7B does not fit one GPU
		{nn.Config125M, multiNodeRDMA, StrategyDDP},
		{nn.Config125M, multiNodeSlow, StrategySubFederation},
	}
	for i, c := range cases {
		got, err := SelectStrategy(c.cfg, c.silo)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got != c.want {
			t.Errorf("case %d (%s on %s): got %v want %v", i, c.cfg.Name, c.silo.Region, got, c.want)
		}
	}
}

func TestSelectStrategyErrors(t *testing.T) {
	if _, err := SelectStrategy(nn.Config125M, Silo{Region: "empty"}); err == nil {
		t.Fatal("empty silo must error")
	}
	oneGPU := Silo{Region: "x", Nodes: []Node{{GPUs: []GPU{H100}}}}
	if _, err := SelectStrategy(nn.Config7B, oneGPU); err == nil {
		t.Fatal("7B on a single GPU must error")
	}
}

func TestInterconnectRDMA(t *testing.T) {
	for ic, want := range map[Interconnect]bool{
		NVLink: true, InfiniBand: true, RoCE: true, PCIe: false, Ethernet: false,
	} {
		if got := ic.IsRDMA(); got != want {
			t.Errorf("%v.IsRDMA() = %v, want %v", ic, got, want)
		}
	}
}

func TestMFUBounds(t *testing.T) {
	// MFU with the paper's measured ν must be positive and below ~1.3
	// (the paper itself reports >1 MFU for Fed-1.3B, so allow headroom).
	mfu := MFU(nn.Config125M, H100, 1, 2.0, 32)
	if mfu <= 0 || mfu > 1.3 {
		t.Fatalf("125M MFU out of plausible range: %v", mfu)
	}
	if MFU(nn.Config125M, H100, 0, 2, 32) != 0 {
		t.Fatal("degenerate MFU inputs must return 0")
	}
}

func TestPaperThroughputTable(t *testing.T) {
	cases := []struct {
		name string
		fed  bool
		want float64
	}{
		{"125M", true, 2}, {"125M", false, 2},
		{"1.3B", true, 0.147}, {"1.3B", false, 0.839},
		{"3B", true, 0.144}, {"3B", false, 0.395},
		{"7B", true, 0.032}, {"7B", false, 0.12},
		{"unknown", true, 0},
	}
	for _, c := range cases {
		if got := PaperThroughput(c.name, c.fed); got != c.want {
			t.Errorf("PaperThroughput(%s, fed=%v) = %v, want %v", c.name, c.fed, got, c.want)
		}
	}
}

func TestModelSizeMB(t *testing.T) {
	// 7B in BF16 ≈ 13-15 GB on the wire.
	mb := ModelSizeMB(nn.Config7B)
	if mb < 12000 || mb > 16000 {
		t.Fatalf("7B wire size: got %v MB", mb)
	}
}

func TestTable1Deployments(t *testing.T) {
	deps := Table1Deployments()
	if len(deps) != 4 {
		t.Fatalf("want 4 deployments, got %d", len(deps))
	}
	byName := map[string]Deployment{}
	for _, d := range deps {
		byName[d.ModelName] = d
		if d.AggRegion != "England" {
			t.Errorf("%s: aggregator must be in England", d.ModelName)
		}
	}
	// Table 1 row checks.
	if d := byName["7B"]; d.TotalClients() != 4 || totalGPUs(d) != 32 {
		t.Errorf("7B: %d clients / %d GPUs, want 4/32", d.TotalClients(), totalGPUs(d))
	}
	if d := byName["3B"]; d.TotalClients() != 4 || totalGPUs(d) != 16 {
		t.Errorf("3B: %d clients / %d GPUs, want 4/16", d.TotalClients(), totalGPUs(d))
	}
	if d := byName["1.3B"]; d.TotalClients() != 8 {
		t.Errorf("1.3B: %d clients, want 8", d.TotalClients())
	}
	if d := byName["125M"]; d.TotalClients() != 10 || totalGPUs(d) != 10 {
		t.Errorf("125M: %d clients / %d GPUs, want 10/10", d.TotalClients(), totalGPUs(d))
	}
}

func TestRegionClientsMergesAndSorts(t *testing.T) {
	d := Deployment{ModelName: "x", AggRegion: "England", Silos: []RegionSilo{
		{Region: "Utah", Clients: 2, GPUsPerClient: 1},
		{Region: "Texas", Clients: 1, GPUsPerClient: 1},
		{Region: "Utah", Clients: 3, GPUsPerClient: 1}, // duplicate row merges
		{Region: "Quebec", Clients: 0, GPUsPerClient: 1},
	}}
	rc := d.RegionClients()
	if rc["Utah"] != 5 || rc["Texas"] != 1 {
		t.Fatalf("RegionClients = %v, want Utah 5 / Texas 1", rc)
	}
	if _, ok := rc["Quebec"]; ok {
		t.Fatal("zero-client region must be omitted")
	}
	regions := d.Regions()
	if len(regions) != 2 || regions[0] != "Texas" || regions[1] != "Utah" {
		t.Fatalf("Regions = %v, want sorted [Texas Utah]", regions)
	}
}

func TestDeploymentFor(t *testing.T) {
	if _, ok := DeploymentFor(nn.Config7B); !ok {
		t.Fatal("7B deployment missing")
	}
	if _, ok := DeploymentFor(nn.ConfigTiny); ok {
		t.Fatal("tiny config should have no Table 1 deployment")
	}
}

func TestSiloForRegion(t *testing.T) {
	s := SiloForRegion(RegionSilo{Region: "Utah", Clients: 1, GPUsPerClient: 8}, 2.0)
	if s.NumGPUs() != 8 || s.Region != "Utah" || s.WANGbps != 2.0 {
		t.Fatalf("bad silo: %+v", s)
	}
	if s.TotalVRAMGiB() != 8*80 {
		t.Fatalf("VRAM: got %v", s.TotalVRAMGiB())
	}
}

func TestUtilizationShape(t *testing.T) {
	if Utilization(0) != 0 {
		t.Fatal("zero batch must be zero util")
	}
	prev := 0.0
	for _, b := range []int{1, 2, 4, 8, 32, 128} {
		u := Utilization(b)
		if u <= prev || u > 0.99 {
			t.Fatalf("utilization not increasing/bounded at batch %d: %v", b, u)
		}
		prev = u
	}
}

func TestStrategyString(t *testing.T) {
	names := map[Strategy]string{
		StrategySingleGPU: "single-gpu", StrategyDDP: "ddp",
		StrategyFSDP: "fsdp", StrategySubFederation: "sub-federation",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
}

// totalGPUs returns the number of accelerators in the deployment.
func totalGPUs(d Deployment) int {
	n := 0
	for _, s := range d.Silos {
		n += s.Clients * s.GPUsPerClient
	}
	return n
}
