package ipcl_test

import (
	"strings"
	"testing"

	"infopipes/internal/core"
	"infopipes/internal/ipcl"
	"infopipes/internal/pipes"
	"infopipes/internal/uthread"
)

func TestParseSimpleChain(t *testing.T) {
	exprs, err := ipcl.Parse("counter(12) >> probe >> pump(rate=30) >> collect")
	if err != nil {
		t.Fatal(err)
	}
	if len(exprs) != 4 {
		t.Fatalf("stages = %d", len(exprs))
	}
	if exprs[0].Kind != "counter" || exprs[0].Args[0] != "12" {
		t.Errorf("stage 0 = %+v", exprs[0])
	}
	if exprs[2].Kind != "pump" || exprs[2].Params["rate"] != "30" {
		t.Errorf("stage 2 = %+v", exprs[2])
	}
}

func TestParseNamesStringsAndNumbers(t *testing.T) {
	exprs, err := ipcl.Parse(`video(frames=300, gop="IBBP"):movie >> decoder(cost=200us):dec >> pump(29.97) >> display`)
	if err != nil {
		t.Fatal(err)
	}
	if exprs[0].Name != "movie" || exprs[0].Params["gop"] != "IBBP" {
		t.Errorf("stage 0 = %+v", exprs[0])
	}
	if exprs[1].Name != "dec" || exprs[1].Params["cost"] != "200us" {
		t.Errorf("stage 1 = %+v", exprs[1])
	}
	if exprs[2].Args[0] != "29.97" {
		t.Errorf("stage 2 = %+v", exprs[2])
	}
}

var parseErrorCases = []string{
	"",                     // empty
	"solo",                 // single stage
	"a >> >> b",            // missing stage
	"a > b",                // single >
	"a(x=) >> b",           // missing value
	"a( >> b",              // unterminated args
	`a("unterminated >> b`, // unterminated string
	"a >> b extra",         // trailing garbage
	"a:(b) >> c",           // bad name
	"9stage >> b",          // number as kind: lexes as number -> parse error
}

func TestParseErrors(t *testing.T) {
	for _, src := range parseErrorCases {
		if _, err := ipcl.Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

// FuzzIpclParse feeds arbitrary text to the composition-language parser —
// ipctl and ipnode hand it whatever the operator typed.  It must never
// panic, and it answers with an error or with stages, never both or
// neither: a pipeline has at least two stages, each with a kind.
func FuzzIpclParse(f *testing.F) {
	for _, src := range parseErrorCases {
		f.Add(src)
	}
	f.Add("counter(12) >> probe >> pump(rate=30) >> collect")
	f.Add(`video(frames=300, gop="IBBP"):movie >> decoder(cost=200us):dec >> pump(29.97) >> display`)
	f.Add("counter(5) >> pump@1 >> split{ probe | probe } >> merge >> collect")
	f.Fuzz(func(t *testing.T, src string) {
		stages, err := ipcl.Parse(src)
		if err != nil {
			if stages != nil {
				t.Fatalf("Parse(%q) = %+v AND error %v", src, stages, err)
			}
			return
		}
		if len(stages) < 2 {
			t.Fatalf("Parse(%q) accepted %d stage(s): %+v", src, len(stages), stages)
		}
		for i, e := range stages {
			if e.Kind == "" {
				t.Fatalf("Parse(%q): stage %d has no kind: %+v", src, i, stages)
			}
		}
	})
}

func TestBuildUnknownKind(t *testing.T) {
	_, err := ipcl.Build(ipcl.StdRegistry(), "counter(1) >> warpdrive >> null")
	if err == nil || !strings.Contains(err.Error(), "warpdrive") {
		t.Fatalf("err = %v", err)
	}
}

func TestBuildUniqueNames(t *testing.T) {
	stages, err := ipcl.Build(ipcl.StdRegistry(), "counter(4) >> probe >> probe >> pump >> null")
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, s := range stages {
		if names[s.Name()] {
			t.Fatalf("duplicate stage name %q", s.Name())
		}
		names[s.Name()] = true
	}
}

func TestComposeAndRunTextualPipeline(t *testing.T) {
	sched := uthread.New()
	reg := ipcl.StdRegistry()
	p, err := ipcl.Compose("textual", sched, nil, reg,
		"counter(20) >> probe:in >> pump >> buffer(4) >> pump(rate=100) >> probe:out >> collect")
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	if len(p.Plan().Sections) != 2 {
		t.Fatalf("sections = %d, want 2 (buffer splits)", len(p.Plan().Sections))
	}
}

func TestComposeTextualVideoPlayer(t *testing.T) {
	// The paper's player, textually.
	sched := uthread.New()
	p, err := ipcl.Compose("player", sched, nil, ipcl.StdRegistry(),
		"video(frames=60) >> decoder >> pump(rate=30) >> display")
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	if got := p.Plan().Sections[0].CoroutineSetSize; got != 1 {
		t.Fatalf("set size = %d", got)
	}
}

func TestCustomRegistryExtension(t *testing.T) {
	reg := ipcl.StdRegistry()
	reg.Register("double", func(e ipcl.StageExpr) (core.Stage, error) {
		return core.Comp(pipes.NewFuncFilter(e.Name, nil)), nil // nil fn unused: just check lookup
	})
	exprs, err := ipcl.Parse("counter(1) >> double >> pump >> null")
	if err != nil {
		t.Fatal(err)
	}
	if exprs[1].Kind != "double" {
		t.Fatal("custom kind lost")
	}
}

func TestBadParamsSurfaceErrors(t *testing.T) {
	reg := ipcl.StdRegistry()
	for _, src := range []string{
		"counter(abc) >> pump >> null",                             // bad int
		"video(fps=wat) >> pump >> null",                           // bad float
		"counter(1) >> pump >> buffer(push=maybe) >> pump >> null", // bad policy
		"counter(1) >> decoder(cost=fast) >> pump >> null",         // bad duration
	} {
		if _, err := ipcl.Build(reg, src); err == nil {
			t.Errorf("Build(%q) succeeded, want error", src)
		}
	}
}
