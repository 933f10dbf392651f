// Package infopipes is the public facade of the Infopipe middleware — a Go
// implementation of "Thread Transparency in Information Flow Middleware"
// (Koster, Black, Huang, Walpole, Pu; Middleware 2001 / SP&E 33(4)).
//
// Infopipes model information-flow pipelines the way plumbing models water
// flow: applications compose sources, filters, buffers, pumps, netpipes and
// sinks, and the middleware transparently manages threads, coroutines and
// synchronization.  Components are written in whichever activity style is
// most natural — active objects, passive push (consumer), passive pull
// (producer), or conversion functions — and the platform generates the glue
// that lets any style run in any pipeline position.
//
// A minimal player (the paper's §4 example):
//
//	sched := infopipes.NewScheduler()
//	src, _ := infopipes.NewVideoSource("source", infopipes.DefaultVideoConfig(), 300)
//	p, err := infopipes.Compose("player", sched, nil, []infopipes.Stage{
//		infopipes.Comp(src),
//		infopipes.Comp(infopipes.NewDecoder("decode", 0)),
//		infopipes.Pmp(infopipes.NewClockedPump("pump", 30)), // 30 Hz
//		infopipes.Comp(infopipes.NewDisplay("sink")),
//	})
//	if err != nil { ... }
//	p.Start() // send_event(START)
//	err = sched.Run()
//
// Real flows are graphs: they split, merge, and span schedulers and hosts.
// The Graph API declares the flow once and binds the placement as policy —
// the same graph deploys onto one scheduler, a sharded runtime (the planner
// auto-inserts ShardLinks where segments land on different shards), or
// remote nodes (TCP netpipes):
//
//	g := infopipes.NewGraph("diamond")
//	g.AddSpec("src", "counter", infopipes.GraphArgs("300"))
//	g.AddSpec("pump", "pump", infopipes.GraphParam("rate", "100"))
//	g.SplitSpec("tee", "route", 2, infopipes.GraphParam("sel", "mod"))
//	g.AddSpec("fa", "probe")
//	g.AddSpec("pa", "pump")
//	g.AddSpec("fb", "probe", infopipes.GraphPlace(1)) // shard 1
//	g.AddSpec("pb", "pump", infopipes.GraphPlace(1))
//	g.MergeSpec("mrg", 2)
//	g.AddSpec("po", "pump")
//	g.AddSpec("sink", "collect")
//	g.Pipe("src", "pump", "tee")
//	g.Pipe("tee:0", "fa", "pa", "mrg:0")
//	g.Pipe("tee:1", "fb", "pb", "mrg:1")
//	g.Pipe("mrg", "po", "sink")
//	group := infopipes.NewSchedulerGroup(infopipes.ShardCount(2))
//	d, err := g.Deploy(infopipes.OnGroup(group))
//	if err != nil { ... }
//	d.Start()
//	err = group.Run()
//
// The same topology reads as text through the microlanguage:
//
//	g, err := infopipes.BuildTextGraph(infopipes.StandardRegistry(), "diamond",
//		"counter(300) >> pump(rate=100) >> "+
//			"route(sel=mod){ probe >> pump | probe@1 >> pump@1 } >> merge >> "+
//			"pump >> collect")
package infopipes

import (
	"infopipes/internal/control"
	"infopipes/internal/core"
	"infopipes/internal/elastic"
	"infopipes/internal/events"
	"infopipes/internal/feedback"
	"infopipes/internal/graph"
	"infopipes/internal/ipcl"
	"infopipes/internal/item"
	"infopipes/internal/media"
	"infopipes/internal/netpipe"
	"infopipes/internal/pipes"
	"infopipes/internal/qos"
	"infopipes/internal/remote"
	"infopipes/internal/shard"
	"infopipes/internal/typespec"
	"infopipes/internal/uthread"
	"infopipes/internal/vclock"
)

// ---- Runtime: schedulers and clocks ----

type (
	// Scheduler runs user-level threads; every pipeline needs one.
	Scheduler = uthread.Scheduler
	// Clock is the scheduler time base.
	Clock = vclock.Clock
	// VirtualClock is the deterministic simulated clock.
	VirtualClock = vclock.Virtual
	// Priority orders thread execution.
	Priority = uthread.Priority
)

// RealClock is the wall-clock time base.
type RealClock = vclock.Real

// Advanced scheduler surface, for applications that add their own
// user-level threads (feedback helpers, custom control components).
type (
	// SchedThread is a user-level thread of a Scheduler.
	SchedThread = uthread.Thread
	// SchedMessage is the unit of inter-thread communication.
	SchedMessage = uthread.Message
	// SchedDisposition is a code function's continue/terminate result.
	SchedDisposition = uthread.Disposition
)

// Code-function dispositions.
const (
	SchedContinue  = uthread.Continue
	SchedTerminate = uthread.Terminate
)

// Thread priority levels (tenant pump priority, ipctl edit tenant).
const (
	PriorityLow    = uthread.PriorityLow
	PriorityNormal = uthread.PriorityNormal
	PriorityHigh   = uthread.PriorityHigh
)

// NewScheduler creates a scheduler with a deterministic virtual clock.
func NewScheduler() *Scheduler { return uthread.New() }

// NewRealTimeScheduler creates a scheduler on the wall clock, for
// interactive and distributed pipelines.
func NewRealTimeScheduler() *Scheduler {
	return uthread.New(uthread.WithClock(vclock.Real{}))
}

// NewSchedulerWithClock creates a scheduler on an explicit clock.  A plain
// VirtualClock serves one scheduler at a time (Run refuses a second
// concurrent driver — sharing one Virtual let an idle scheduler jump time
// past its peer's earlier deadlines).  To share one deterministic time base
// across several schedulers, create a GroupVirtualClock and give each
// scheduler its own Member.
func NewSchedulerWithClock(c Clock) *Scheduler {
	return uthread.New(uthread.WithClock(c))
}

// NewVirtualClock returns a fresh virtual clock at the epoch.
func NewVirtualClock() *VirtualClock { return vclock.NewVirtual() }

// Epoch is the instant every virtual clock starts at.
var Epoch = vclock.Epoch

// GroupVirtualClock is the coordinated virtual clock shared by several
// schedulers: each scheduler drives one Member, and global time advances
// only to the minimum pending deadline once every member is idle — a
// deterministic distributed discrete-event simulation.
type GroupVirtualClock = vclock.GroupVirtual

// GroupClockMember is one scheduler's handle on a GroupVirtualClock.
type GroupClockMember = vclock.GroupMember

// NewGroupVirtualClock returns a coordinated shared clock at the epoch.
// Typical use:
//
//	g := infopipes.NewGroupVirtualClock()
//	s1 := infopipes.NewSchedulerWithClock(g.Member())
//	s2 := infopipes.NewSchedulerWithClock(g.Member())
//	errc1, errc2 := s1.RunBackground(), s2.RunBackground()
//
// Member schedulers must run CONCURRENTLY: time only advances once every
// member is idle, so a member that was created but never runs holds the
// clock still and any peer timer blocks forever (a member leaves the group
// when its scheduler shuts down, so finished members never hold time back —
// but a never-started one does).  Running the members sequentially is
// therefore only safe when the earlier ones use no timers.  SchedulerGroup
// manages this automatically; prefer it over hand-wiring members.
var NewGroupVirtualClock = vclock.NewGroupVirtual

// ---- Sharded runtime: multi-core pipeline farms ----

type (
	// SchedulerGroup is the multi-core sharded runtime: it owns N
	// schedulers (default runtime.NumCPU()), runs each on its own
	// goroutine, places whole pipelines onto shards (round-robin or
	// least-loaded), and joins Run/Stop/Err plus aggregated Stats.
	// Thread transparency is preserved per shard: every pipeline still
	// lives inside one uniprocessor scheduler, so components never see
	// concurrency.  By default the shards share one coordinated virtual
	// clock; ShardRealClock selects the wall clock for throughput farms.
	SchedulerGroup = shard.Group
	// ShardLink is the in-process cross-shard netpipe: zero-copy (no
	// marshalling), bounded, blocking on both sides, with the same
	// SenderStages/ReceiverStages surface as the network links.
	ShardLink = shard.Link
	// ShardOption configures a SchedulerGroup.
	ShardOption = shard.Option
	// ShardPolicy selects the pipeline placement policy.
	ShardPolicy = shard.Policy
	// SchedStats is a snapshot of scheduler activity counters.
	SchedStats = uthread.Stats
)

// Placement policies.
const (
	ShardRoundRobin  = shard.RoundRobin
	ShardLeastLoaded = shard.LeastLoaded
)

// Sharded-runtime constructors and options.
var (
	NewSchedulerGroup = shard.NewGroup
	NewShardLink      = shard.NewLink
	ShardCount        = shard.WithShardCount
	ShardPlacement    = shard.WithPolicy
	ShardRealClock    = shard.WithRealClock
	// ShardPinned locks each shard's Run loop to its own OS thread
	// (runtime.LockOSThread) — the first step of NUMA/CPU placement.
	ShardPinned = shard.WithPinnedShards
)

// ---- Component model ----

type (
	// Component is the SPI common to all activity styles.
	Component = core.Component
	// Function, Consumer, Producer and Active are the four activity
	// styles of §3.3.
	Function = core.Function
	Consumer = core.Consumer
	Producer = core.Producer
	Active   = core.Active
	// Base supplies component defaults; embed it.
	Base = core.Base
	// Ctx is the component's runtime interface to the middleware.
	Ctx = core.Ctx
	// Style identifies an activity style.
	Style = core.Style
	// Mode is push or pull, assigned by the planner.
	Mode = core.Mode
	// Item is one information item.
	Item = item.Item
)

// Activity styles.
const (
	StyleFunction = core.StyleFunction
	StyleConsumer = core.StyleConsumer
	StyleProducer = core.StyleProducer
	StyleActive   = core.StyleActive
)

// Interaction modes.
const (
	PushMode = core.PushMode
	PullMode = core.PullMode
)

// NewItem creates an information item; see item.New.
var NewItem = item.New

// ---- Graph composition: declare the flow once, bind placement as policy ----

type (
	// Graph is the builder for branching information-flow graphs: declare
	// named stages, splits (fan-out), merges (fan-in) and cut points once,
	// then Deploy against a placement target.
	Graph = graph.Graph
	// GraphDeployment joins Start/Stop/Err/Done/Wait across every pipeline
	// a deployed graph composed.
	GraphDeployment = graph.Deployment
	// GraphTarget is a deployment destination: OnScheduler (one scheduler),
	// OnGroup (sharded runtime, a ShardLink at every cut edge), or OnNodes
	// (remote nodes joined by TCP netpipes).
	GraphTarget = graph.Target
	// GraphNodeOption adjusts one node declaration (GraphPlace, GraphArgs,
	// GraphParam).
	GraphNodeOption = graph.NodeOption
	// GraphCatalog maps spec kinds to stage factories for spec-backed
	// graphs.
	GraphCatalog = graph.Catalog
	// GraphStageFactory builds one stage from a spec.
	GraphStageFactory = graph.StageFactory
	// GraphPlan is the planner's segmentation of a graph (diagnostics).
	GraphPlan = core.GraphPlan
	// SplitTee is the fan-out surface the planner composes against; the
	// one split tee (NewCopyTee, NewRouteTee: copy or route) implements it.
	SplitTee = core.SplitPoint
	// MergeTeePoint is the fan-in surface; the one merge tee (NewMergeTee:
	// arrival order) implements it.
	MergeTeePoint = core.MergePoint

	// GraphStats is a deployment's live telemetry snapshot: per-segment
	// pump counters (items, cycles, approximate busy time), per-link depth
	// and wake counts, and per-shard load — collected alloc-free on the
	// hot path, assembled on demand by GraphDeployment.Stats.
	GraphStats = graph.GraphStats
	// GraphSegmentStats is one segment's (or off-plan pipeline's) telemetry
	// row.
	GraphSegmentStats = graph.SegmentStats
	// GraphLinkStats is one cut edge's link telemetry row.
	GraphLinkStats = graph.LinkStats
	// GraphShardLoad is the per-shard aggregate of a deployment.
	GraphShardLoad = graph.ShardLoad
	// BalancePolicy parameterizes the automatic rebalancer (skew threshold
	// and per-epoch minimum item count).
	BalancePolicy = graph.BalancePolicy
	// Balancer proposes GraphDeployment.Rebalance hints from the load-skew
	// deltas between Stats epochs; drive it with GraphDeployment.Balance.
	Balancer = graph.Balancer
	// PipelineStats is one pipeline's raw pump-counter snapshot.
	PipelineStats = core.PipeStats

	// EditOp is one live-edit operation for GraphDeployment.Edit: the
	// deployment quiesces at pump-cycle boundaries, applies the batch
	// transactionally (all ops or none), and resumes without dropping or
	// duplicating an item.
	EditOp = graph.EditOp
	// AttachBranch grows a running split by one subscriber branch.
	AttachBranch = graph.AttachBranch
	// DetachBranch removes a pure sink branch; it drains its in-flight
	// items and ends with a clean end of stream.
	DetachBranch = graph.DetachBranch
	// InsertStage splices a new stage into a live edge.
	InsertStage = graph.InsertStage
	// SwapStage replaces a stage's implementation in place.
	SwapStage = graph.SwapStage
	// RebindTenant retunes the deployment's QoS binding (weight, admission
	// rate, pump priority) without quiescing the flow.
	RebindTenant = graph.RebindTenant
)

// NewGraph starts a graph bound to the standard component catalog, so
// spec-backed stages ("counter", "pump", "collect", ...) resolve out of the
// box; live stages need no catalog at all.
func NewGraph(name string) *Graph {
	return graph.New(name).UseCatalog(ipcl.Catalog(ipcl.StdRegistry()))
}

// Graph deployment targets, node options and helpers.
var (
	OnScheduler = graph.OnScheduler
	OnGroup     = graph.OnGroup
	OnNodes     = graph.OnNodes
	GraphPlace  = graph.Place
	GraphArgs   = graph.WithArgs
	GraphParam  = graph.WithParam
	// EnableGraphNode prepares a remote Node to host graph segments;
	// StandardCatalog adapts the standard registry for it.
	EnableGraphNode = graph.EnableNode
	StandardCatalog = func() GraphCatalog { return ipcl.Catalog(ipcl.StdRegistry()) }
	// BuildTextGraph compiles a branching pipeline expression — e.g.
	// "src >> split{ a >> x | b >> y } >> merge >> sink" — to a Graph.
	BuildTextGraph = ipcl.BuildGraph
	// WithInputSpec seeds Typespec propagation (advanced composition).
	WithInputSpec = core.WithInputSpec
	// NewBalancer creates the automatic rebalancer; see BalancePolicy.
	NewBalancer = graph.NewBalancer
)

// Graph validation and rebalancing errors.
var (
	ErrBadGraph          = core.ErrBadGraph
	ErrGraphCycle        = core.ErrGraphCycle
	ErrDanglingPort      = core.ErrDanglingPort
	ErrPlacementConflict = core.ErrPlacementConflict
	ErrNotRebalancable   = graph.ErrNotRebalancable
	ErrNotMigratable     = graph.ErrNotMigratable
	ErrDeploymentDone    = graph.ErrDeploymentDone
	// ErrNotEditable marks structural edit ops against a target that cannot
	// apply them (remote targets support RebindTenant only).
	ErrNotEditable = graph.ErrNotEditable
)

// ---- Composition ----

type (
	// Pipeline is a composed Infopipe.
	Pipeline = core.Pipeline
	// Stage wraps a component, buffer or pump for composition.
	Stage = core.Stage
	// Plan is the activity analysis (threads, coroutines, modes).
	Plan = core.Plan
	// SectionPlan describes one pump-driven section.
	SectionPlan = core.SectionPlan
	// Placement is the planner's decision for one component.
	Placement = core.Placement
	// ComposeOption adjusts composition.
	ComposeOption = core.ComposeOption
	// Pump is the timing-control interface of §3.1.
	Pump = core.Pump
	// Buffer is the storage-stage interface of §2.1.
	Buffer = core.Buffer
)

// Stage constructors.
var (
	Comp = core.Comp
	Buf  = core.Buf
	Pmp  = core.Pmp
)

// Compose plans and instantiates a pipeline; see core.Compose.
var Compose = core.Compose

// ForceCoroutines is the coroutine-per-component ablation option.
var ForceCoroutines = core.ForceCoroutines

// SkipEventCapabilityCheck disables the §2.3 event-capability check.
var SkipEventCapabilityCheck = core.SkipEventCapabilityCheck

// Data-path and composition errors.
var (
	ErrEOS             = core.ErrEOS
	ErrStopped         = core.ErrStopped
	ErrNoActivity      = core.ErrNoActivity
	ErrTwoPumps        = core.ErrTwoPumps
	ErrBadLayout       = core.ErrBadLayout
	ErrUnwrappable     = core.ErrUnwrappable
	ErrEventCapability = core.ErrEventCapability
)

// ---- Control events ----

type (
	// Event is one control event.
	Event = events.Event
	// EventType identifies a control-event type.
	EventType = events.Type
	// Bus is the global event service.
	Bus = events.Bus
)

// Standard event types.
const (
	EvStart        = events.Start
	EvStop         = events.Stop
	EvPause        = events.Pause
	EvResume       = events.Resume
	EvEOS          = events.EOS
	EvResize       = events.Resize
	EvFrameRelease = events.FrameRelease
	EvQoSReport    = events.QoSReport
	EvRateChange   = events.RateChange
	EvDropLevel    = events.DropLevel
)

// ---- Typespecs ----

type (
	// Typespec describes the properties of an information flow (§2.3).
	Typespec = typespec.Typespec
	// Polarity is the activity of a port.
	Polarity = typespec.Polarity
	// QoSRange is a closed interval of a QoS parameter.
	QoSRange = typespec.Range
	// BlockPolicy is the §2.3 blocking behaviour.
	BlockPolicy = typespec.BlockPolicy
)

// Polarities and policies.
const (
	Negative = typespec.Negative
	Positive = typespec.Positive
	Poly     = typespec.Poly
	Block    = typespec.Block
	NonBlock = typespec.NonBlock
)

// Typespec helpers.
var (
	NewTypespec     = typespec.New
	QoSExactly      = typespec.Exactly
	QoSAtLeast      = typespec.AtLeast
	QoSAtMost       = typespec.AtMost
	QoSBetween      = typespec.Between
	ConnectPolarity = typespec.ConnectPolarity
)

// ---- Standard components (pipes) ----

// Pumps (§3.1).
var (
	NewClockedPump     = pipes.NewClockedPump
	NewClockedPumpPrio = pipes.NewClockedPumpPrio
	NewFreePump        = pipes.NewFreePump
	NewAdaptivePump    = pipes.NewAdaptivePump
)

// TimedPump is the standard pump implementation.
type TimedPump = pipes.TimedPump

// Buffers (§2.1/§2.3).
var (
	NewBuffer         = pipes.NewBuffer
	NewDroppingBuffer = pipes.NewDroppingBuffer
	NewBufferPolicy   = pipes.NewBufferPolicy
)

// BoundedBuffer is the standard buffer implementation.
type BoundedBuffer = pipes.BoundedBuffer

// CollectSink is the measuring terminal sink (counts, items, latency).
type CollectSink = pipes.CollectSink

// Sources, sinks, filters.
var (
	NewGeneratorSource = pipes.NewGeneratorSource
	NewCounterSource   = pipes.NewCounterSource
	NewCollectSink     = pipes.NewCollectSink
	NewFuncSink        = pipes.NewFuncSink
	NullSink           = pipes.NullSink
	NewFuncFilter      = pipes.NewFuncFilter
	NewCountingProbe   = pipes.NewCountingProbe
	NewDelayFilter     = pipes.NewDelayFilter
	NewDropFilter      = pipes.NewDropFilter
)

// The paper's running example in all styles (§3.3).
var (
	NewDefragConsumer = pipes.NewDefragConsumer
	NewDefragProducer = pipes.NewDefragProducer
	NewDefragActive   = pipes.NewDefragActive
	NewFragConsumer   = pipes.NewFragConsumer
	NewFragProducer   = pipes.NewFragProducer
	NewFragActive     = pipes.NewFragActive
)

// Tees (§2.1 splitting and merging).
var (
	NewCopyTee    = pipes.NewCopyTee
	NewRouteTee   = pipes.NewRouteTee
	NewMergeTee   = pipes.NewMergeTee
	NewPullSwitch = pipes.NewPullSwitch
)

// ---- Multi-tenant QoS ----

type (
	// Tenant is one QoS principal: a fair-share weight, an optional
	// admission rate limit, an overload shed policy and a scheduling
	// priority.  Bind a tenant to a deployment at deploy time with
	// WithTenant on any graph target; a nil tenant (the default) preserves
	// the untenanted behaviour exactly.
	Tenant = qos.Tenant
	// TenantOption configures a Tenant at construction.
	TenantOption = qos.TenantOption
	// TenantShedPolicy selects what happens to over-rate items at
	// admission: drop them (counted) or block the producer.
	TenantShedPolicy = qos.ShedPolicy
	// TenantRegistry is a named collection of tenants (operator surface).
	TenantRegistry = qos.Registry
	// TenantQoSStats is one tenant's per-deployment telemetry row
	// (GraphStats.Tenants): admission outcomes, credit debt, work share.
	TenantQoSStats = graph.TenantStats
	// SchedClass is a weighted-fair scheduling class of a Scheduler; the
	// graph layer manages these per tenant — applications spawning their
	// own classed threads can use SpawnClassed directly.
	SchedClass = uthread.SchedClass
	// NodeTenantStat is one tenant's rollup on one remote node (the
	// RemoteClient.Tenants operator call).
	NodeTenantStat = remote.TenantStat
)

// Shed policies.
const (
	TenantShedDrop  = qos.ShedDrop
	TenantShedBlock = qos.ShedBlock
)

// Tenant constructors and options.
var (
	NewTenant         = qos.NewTenant
	NewTenantRegistry = qos.NewRegistry
	TenantWeight      = qos.Weight
	TenantRateLimit   = qos.RateLimit
	TenantShed        = qos.Shed
	TenantPriority    = qos.Priority
	NewSchedClass     = uthread.NewSchedClass
	// WithSchedClass binds a hand-composed pipeline's threads to a
	// weighted-fair class (graph deployments do this automatically).
	WithSchedClass = core.WithSchedClass
)

// ---- Feedback toolkit ----

type (
	// Sensor, Controller and Actuator are the feedback roles (§2.1).
	Sensor     = feedback.Sensor
	Controller = feedback.Controller
	Actuator   = feedback.Actuator
	// PIController and StepController are standard controllers.
	PIController   = feedback.PIController
	StepController = feedback.StepController
	// FeedbackLoop runs the cycle on its own thread.
	FeedbackLoop = feedback.Loop
	// SensorFunc and ActuatorFunc adapt closures.
	SensorFunc   = feedback.SensorFunc
	ActuatorFunc = feedback.ActuatorFunc
	// FillSensor reads buffer fill levels; RateSensor derives rates.
	FillSensor = feedback.FillSensor
	RateSensor = feedback.RateSensor
)

// Feedback helpers.
var (
	NewFeedbackLoop = feedback.NewLoop
	SmoothSensor    = feedback.Smooth
	StopOnEOS       = feedback.StopOnEOS
)

// ---- Media substrate ----

type (
	// VideoConfig parameterises the synthetic video source.
	VideoConfig = media.VideoConfig
	// Frame is a synthetic video frame.
	Frame = media.Frame
	// FrameType is I, P or B.
	FrameType = media.FrameType
	// Display is the measuring video sink.
	Display = media.Display
	// VideoDecoder is the synthetic decoder.
	VideoDecoder = media.Decoder
	// MidiEvent is a MIDI item payload; MidiSink the checksumming sink.
	MidiEvent = media.MidiEvent
	MidiSink  = media.MidiSink
)

// Frame types.
const (
	FrameI = media.FrameI
	FrameP = media.FrameP
	FrameB = media.FrameB
)

// Media constructors and policies.
var (
	DefaultVideoConfig = media.DefaultVideoConfig
	NewVideoSource     = media.NewVideoSource
	NewDecoder         = media.NewDecoder
	NewDisplay         = media.NewDisplay
	PriorityDropPolicy = media.PriorityDropPolicy
	NewMidiSource      = media.NewMidiSource
	NewMidiSink        = media.NewMidiSink
	NewTranspose       = media.NewTranspose
	NewVelocityScale   = media.NewVelocityScale
)

// ---- Netpipes and distribution ----

type (
	// Marshaller converts items to wire frames.
	Marshaller = netpipe.Marshaller
	// BinaryMarshaller is the default wire codec: a hand-rolled binary
	// layout with pooled buffers and a gob fallback for exotic payloads.
	BinaryMarshaller = netpipe.BinaryMarshaller
	// GobMarshaller is the compatibility gob-only marshaller.
	GobMarshaller = netpipe.GobMarshaller
	// SimConfig and SimLink form the simulated best-effort network.
	SimConfig = netpipe.SimConfig
	SimLink   = netpipe.SimLink
	// TCPLink is the reliable TCP netpipe.
	TCPLink = netpipe.TCPLink
	// DurableLaneConfig configures a durable lane endpoint (whether a
	// listener forwards downstream acks); DurableLaneStats is its telemetry
	// snapshot.
	DurableLaneConfig = netpipe.DurableConfig
	DurableLaneStats  = netpipe.LaneStats
	// NetChaos configures seeded fault injection on a netpipe connection
	// (drop, duplicate, delay, stall, mid-frame kill); NetChaosConn is the
	// wrapped connection and NetChaosStats its injected-fault counters.
	NetChaos      = netpipe.Chaos
	NetChaosConn  = netpipe.ChaosConn
	NetChaosStats = netpipe.ChaosStats
	// Node and RemoteClient implement remote setup (§2.4).
	Node         = remote.Node
	RemoteClient = remote.Client
	StageSpec    = remote.StageSpec
	Factory      = remote.Factory
	// NodePipeStat is one remote pipeline's telemetry row (stats op);
	// NodeHealthReport the node liveness report (health op).
	NodePipeStat     = remote.PipeStat
	NodeHealthReport = remote.Health
	// GraphNodesTarget is the OnNodes deployment target; WithClusterLanes
	// makes its lanes redialable so segments can be re-placed at run time.
	GraphNodesTarget = graph.NodesTarget
)

// ---- Cluster control plane ----

type (
	// ClusterDirectory is the node registry with heartbeat health checking.
	ClusterDirectory = control.Directory
	// ClusterNodeHealth is one directory entry's last known state.
	ClusterNodeHealth = control.NodeHealth
	// ClusterOperator serves deployment-level replace/placements calls for
	// out-of-process operator tools (ipctl replace); OperatorClient dials it.
	ClusterOperator = control.Operator
	OperatorClient  = control.OperatorClient
	// OperatorEdit / OperatorStage describe live-edit operations on the
	// operator wire (ipctl edit); stages travel as catalog specs and are
	// built inside the deploying process.
	OperatorEdit  = control.OpEdit
	OperatorStage = control.OpStage
	// OperatorNode / OperatorClusterEvent are the membership rows and
	// JOIN/DRAIN/LEAVE events the operator wire serves once a cluster is
	// wired in (ClusterOperator.WithCluster; ipctl nodes / drain / watch).
	OperatorNode         = control.OpNode
	OperatorClusterEvent = control.OpClusterEvent
)

// ---- Elastic cluster ----

type (
	// ElasticCluster is the one control loop over a ClusterDirectory: it
	// applies failover, join / drain / leave, balance and autoscale
	// decisions one at a time on one clock, and logs each (Events).
	ElasticCluster = elastic.Cluster
	// ElasticEvent is one action in the cluster's log.
	ElasticEvent     = elastic.Event
	ElasticEventKind = elastic.EventKind
	// AutoscalePolicy declares how one stage scales (ElasticCluster.Autoscale):
	// its active replica count tracks load between the policy's Min and Max.
	AutoscalePolicy = elastic.Policy
	// FanOutTree is the multi-level distribution tree, deployed as one
	// graph: trunk, relays, and churn-safe leaf subscriptions, each one edit
	// that pauses only the leaf's relay; TreeSub is one subscription handle.
	FanOutTree = elastic.Tree
	TreeSub    = elastic.Sub
)

// Elastic cluster constructors and event kinds.
var (
	NewElasticCluster = elastic.NewCluster
	NewFanOutTree     = elastic.NewTree

	ElasticJoin     = elastic.Join
	ElasticDrain    = elastic.Drain
	ElasticLeave    = elastic.Leave
	ElasticDown     = elastic.Down
	ElasticUp       = elastic.Up
	ElasticFailover = elastic.Failover
	ElasticRetry    = elastic.Retry
	ElasticFail     = elastic.Fail
	ElasticBalance  = elastic.Balance
	ElasticScale    = elastic.Scale
)

// Cluster control-plane constructors and errors.
var (
	NewClusterDirectory = control.NewDirectory
	NewClusterOperator  = control.NewOperator
	DialOperator        = control.DialOperator
	// ErrNodeUnreachable wraps every transport-level failure of a control
	// call — a dead or wedged node surfaces as this instead of a hang.
	ErrNodeUnreachable = remote.ErrNodeUnreachable
	// ErrNotReplaceable marks segments Deployment.Rebalance cannot move between nodes.
	ErrNotReplaceable = graph.ErrNotReplaceable
)

// Netpipe and remote helpers.
var (
	NewMarshalFilter             = netpipe.NewMarshalFilter
	NewUnmarshalFilter           = netpipe.NewUnmarshalFilter
	RegisterWirePayload          = netpipe.RegisterPayload
	DefaultMarshaller            = netpipe.DefaultMarshaller
	NewBinaryMarshaller          = netpipe.NewBinaryMarshaller
	NewStreamingBinaryMarshaller = netpipe.NewStreamingBinaryMarshaller
	RegisterBinaryPayload        = netpipe.RegisterBinaryPayload
	NewSimLink                   = netpipe.NewSimLink
	NewTCPSenderLink             = netpipe.NewTCPSenderLink
	NewTCPReceiverLink           = netpipe.NewTCPReceiverLink
	NewDurableTCPSenderLink      = netpipe.NewDurableTCPSenderLink
	NewDurableTCPListenerLink    = netpipe.NewDurableTCPListenerLink
	NewNetChaosConn              = netpipe.NewChaosConn
	NetChaosDial                 = netpipe.ChaosDial
	NewNode                      = remote.NewNode
	DialNode                     = remote.Dial
	ForwardEvents                = remote.ForwardEvents
)

// ---- Composition microlanguage (the paper's planned ref [24]) ----

type (
	// PipelineRegistry maps textual stage kinds to factories.
	PipelineRegistry = ipcl.Registry
	// PipelineStageExpr is one parsed stage of a pipeline expression.
	PipelineStageExpr = ipcl.StageExpr
)

// Microlanguage helpers: parse/build/compose pipelines from expressions
// like "video(frames=300) >> decoder >> pump(rate=30) >> display".
var (
	ParsePipeline    = ipcl.Parse
	BuildPipeline    = ipcl.Build
	ComposeText      = ipcl.Compose
	StandardRegistry = ipcl.StdRegistry
)
