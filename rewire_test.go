package rewire

import (
	"strings"
	"testing"
	"time"
)

func TestPublicQuickstartFlow(t *testing.T) {
	g, err := LoadKernel("mvt")
	if err != nil {
		t.Fatal(err)
	}
	cgra := New4x4(4)
	if mii := MII(g, cgra); mii < 1 {
		t.Fatalf("MII = %d", mii)
	}
	m, res, err := Map(g, cgra, Options{Seed: 1, TimePerII: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(m); err != nil {
		t.Fatal(err)
	}
	if !res.Success || res.II < res.MII {
		t.Fatalf("bad result: %v", res)
	}
	if !strings.Contains(Render(m), "cycle 0") {
		t.Fatal("render missing schedule")
	}
	if u, err := RenderUtilisation(m); err != nil || !strings.Contains(u, "fu") {
		t.Fatalf("utilisation: %v %q", err, u)
	}
	if rt, err := RenderRoutes(m); err != nil || rt == "" {
		t.Fatalf("routes: %v", err)
	}
}

func TestAllMappersViaFacade(t *testing.T) {
	g, err := LoadKernel("gesummv")
	if err != nil {
		t.Fatal(err)
	}
	cgra := New4x4(4)
	// "pf" is an alias of MapperPathFinder, as on the CLIs and the daemon.
	for _, name := range []MapperName{MapperRewire, MapperPathFinder, MapperSA, "pf"} {
		m, res, err := Map(g, cgra, Options{Mapper: name, Seed: 1, TimePerII: 2 * time.Second})
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if err := Validate(m); err != nil {
			t.Errorf("%s produced invalid mapping: %v", name, err)
		}
		if res.Mapper == "" {
			t.Errorf("%s: result not labelled", name)
		}
	}
}

func TestMapUnknownMapper(t *testing.T) {
	g, _ := LoadKernel("mvt")
	if _, _, err := Map(g, New4x4(4), Options{Mapper: "magic"}); err == nil {
		t.Fatal("expected error")
	}
}

func TestMapReportsFailure(t *testing.T) {
	g, _ := LoadKernel("crc") // RecMII 8
	_, res, err := Map(g, New4x4(4), Options{Seed: 1, MaxII: 3, TimePerII: time.Second})
	if err == nil {
		t.Fatal("expected failure below RecMII")
	}
	if res.Success {
		t.Fatal("result claims success")
	}
	if !strings.Contains(err.Error(), "MII=8") {
		t.Fatalf("error should carry MII: %v", err)
	}
}

func TestParseKernelWithUnroll(t *testing.T) {
	src := `
kernel saxpy
param alpha
t = a[i] * alpha + b[i]
y[i] = t
`
	base, err := ParseKernel(src, 1)
	if err != nil {
		t.Fatal(err)
	}
	unrolled, err := ParseKernel(src, 2)
	if err != nil {
		t.Fatal(err)
	}
	if unrolled.NumNodes() != 2*base.NumNodes() {
		t.Fatalf("unroll: %d vs %d nodes", unrolled.NumNodes(), base.NumNodes())
	}
	if _, err := ParseKernel("not a kernel ?!", 1); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestKernelsRegistryExposed(t *testing.T) {
	names := Kernels()
	if len(names) < 16 {
		t.Fatalf("only %d kernels exposed", len(names))
	}
	for _, n := range names {
		if _, err := LoadKernel(n); err != nil {
			t.Errorf("%s: %v", n, err)
		}
	}
	if _, err := LoadKernel("bogus"); err == nil {
		t.Fatal("expected unknown-kernel error")
	}
}

func TestNewCGRACustom(t *testing.T) {
	c := NewCGRA("test", 3, 5, 2, 2, 0, 4)
	if c.NumPEs() != 15 || c.NumMemPEs() != 6 {
		t.Fatalf("custom CGRA wrong: %v", c)
	}
}

func TestFacadeConfigSimulateEnergy(t *testing.T) {
	g, err := LoadKernel("mvt")
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := Map(g, New4x4(4), Options{Mapper: MapperPathFinder, Seed: 1, TimePerII: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	c, err := GenerateConfig(m)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(c.Disassemble(), "cycle 0") {
		t.Fatal("disassembly empty")
	}
	got, err := Simulate(c, 5)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Interpret(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := want.Equal(got); err != nil {
		t.Fatal(err)
	}
	if err := VerifyExecution(m, 5); err != nil {
		t.Fatal(err)
	}
	rep, err := EstimateEnergy(m)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Energy <= 0 {
		t.Fatal("no energy estimated")
	}
}

func TestFacadeBundleRoundTrip(t *testing.T) {
	g, err := LoadKernel("gesummv")
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := Map(g, New4x4(4), Options{Mapper: MapperPathFinder, Seed: 2, TimePerII: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	data, err := SaveMapping(m)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := LoadMapping(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(m2); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadMapping([]byte("{")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestFacadeADL(t *testing.T) {
	c, err := ParseArch("cgra t\ngrid 5 x 5\nregs 2\nbanks 3\nmemcols 0 4\n")
	if err != nil {
		t.Fatal(err)
	}
	if c.NumPEs() != 25 || c.NumMemPEs() != 10 {
		t.Fatalf("parsed: %v", c)
	}
	if _, err := ParseArch(FormatArch(c)); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if _, err := ParseArch("grid bogus\n"); err == nil {
		t.Fatal("bad spec accepted")
	}
}
