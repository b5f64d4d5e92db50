package vssd

import (
	"fmt"

	"repro/internal/flash"
	"repro/internal/ftl"
	"repro/internal/gsb"
	"repro/internal/obs"
	"repro/internal/sim"
)

// PlatformConfig holds the device geometry.
type PlatformConfig struct {
	Flash flash.Config
}

// DefaultPlatformConfig mirrors the paper's Table 3.
func DefaultPlatformConfig() PlatformConfig {
	return PlatformConfig{Flash: flash.DefaultConfig()}
}

// overprovision is the fraction of raw capacity withheld from logical
// space (Table 3: 20%).
const overprovision = 0.20

// Platform is one shared SSD with its collocated vSSDs — the unit every
// experiment runs against.
type Platform struct {
	eng  *sim.Engine
	dev  *flash.Device
	ftlm *ftl.Manager
	gsbm *gsb.Manager
	cfg  flash.Config

	vssds []*VSSD

	// rec receives decision events from the whole device stack; nil (the
	// default) disables tracing at the cost of one nil check per site.
	rec *obs.Recorder
}

// NewPlatform builds the device, FTL, and gSB manager on the engine.
func NewPlatform(eng *sim.Engine, pc PlatformConfig) *Platform {
	dev := flash.NewDevice(eng, pc.Flash)
	ftlm := ftl.NewManager(eng, dev)
	p := &Platform{
		eng:  eng,
		dev:  dev,
		ftlm: ftlm,
		cfg:  pc.Flash,
	}
	p.gsbm = gsb.NewManager(ftlm, pc.Flash.Channels, pc.Flash.ChannelBandwidth())
	return p
}

// Engine returns the simulation engine.
func (p *Platform) Engine() *sim.Engine { return p.eng }

// SetObserver attaches a decision-event recorder to the platform and its
// FTL and gSB managers. The platform keeps a view bound to its own
// engine's clock (shared storage, per-run timestamps), so concurrent runs
// can feed one recorder without reading each other's virtual time.
// Passing nil detaches tracing everywhere.
func (p *Platform) SetObserver(rec *obs.Recorder) {
	rec = rec.Bind(p.eng.Now)
	p.rec = rec
	p.ftlm.SetObserver(rec)
	p.gsbm.SetObserver(rec)
}

// Observer returns the attached recorder (nil when tracing is off).
func (p *Platform) Observer() *obs.Recorder { return p.rec }

// Device returns the flash device.
func (p *Platform) Device() *flash.Device { return p.dev }

// FTL returns the FTL manager.
func (p *Platform) FTL() *ftl.Manager { return p.ftlm }

// GSB returns the ghost-superblock manager.
func (p *Platform) GSB() *gsb.Manager { return p.gsbm }

// FlashConfig returns the device geometry.
func (p *Platform) FlashConfig() flash.Config { return p.cfg }

// VSSDs returns the platform's vSSDs in creation order.
func (p *Platform) VSSDs() []*VSSD { return p.vssds }

// VSSD returns the vSSD with the given id.
func (p *Platform) VSSD(id int) *VSSD { return p.vssds[id] }

// AddVSSD creates a vSSD owning (or sharing) the configured channels.
func (p *Platform) AddVSSD(cfg Config) *VSSD {
	id := len(p.vssds)
	logical := cfg.LogicalPages
	if logical <= 0 {
		blocks := len(cfg.Channels) * p.cfg.ChipsPerChannel * p.cfg.BlocksPerChip
		logical = int(float64(blocks*p.cfg.PagesPerBlock) * (1 - overprovision))
		if cfg.Isolation == SoftwareIsolated {
			// Shared channels: assume an equal logical split is configured
			// by the caller; default to a half share to stay safe.
			logical /= 2
		}
	}
	if logical <= 0 {
		panic("vssd: zero logical capacity")
	}
	tenant := ftl.NewTenant(p.ftlm, id, cfg.Channels, logical)
	v := &VSSD{
		id:       id,
		cfg:      cfg,
		plat:     p,
		tenant:   tenant,
		priority: ftl.PriorityMed,
		slo:      cfg.SLO,
		burst:    cfg.RateLimitBps,
		tokens:   cfg.RateLimitBps,
	}
	p.vssds = append(p.vssds, v)
	return v
}

// ActionKind enumerates the RL/baseline actions the platform can execute.
type ActionKind uint8

// Action kinds: the paper's three RL actions (Table 2) plus the channel
// repartitioning used by the SSDKeeper/Adaptive baselines and rate-limit
// tuning used by Software Isolation.
const (
	ActHarvest ActionKind = iota
	ActMakeHarvestable
	ActSetPriority
	ActSetChannels
	ActSetRateLimit
)

func (k ActionKind) String() string {
	switch k {
	case ActHarvest:
		return "Harvest"
	case ActMakeHarvestable:
		return "Make_Harvestable"
	case ActSetPriority:
		return "Set_Priority"
	case ActSetChannels:
		return "Set_Channels"
	case ActSetRateLimit:
		return "Set_RateLimit"
	default:
		return fmt.Sprintf("ActionKind(%d)", uint8(k))
	}
}

// Action is one decision issued by a policy for one vSSD.
type Action struct {
	VSSD int
	Kind ActionKind
	// BW is the gsb_bw operand of Harvest/Make_Harvestable, or the rate of
	// SetRateLimit, in bytes/s.
	BW float64
	// Level is the Set_Priority operand.
	Level int
	// Channels is the Set_Channels operand.
	Channels []int
}

// Apply executes one action immediately. (The admission controller batches
// and filters harvest-related actions before calling this — §3.5.)
func (p *Platform) Apply(a Action) {
	v := p.vssds[a.VSSD]
	switch a.Kind {
	case ActSetPriority:
		v.setPriority(a.Level)
	case ActMakeHarvestable:
		p.gsbm.SetHarvestable(v.tenant, p.gsbm.ChannelsFor(a.BW))
	case ActHarvest:
		p.applyHarvestTarget(v, p.gsbm.ChannelsFor(a.BW))
	case ActSetChannels:
		v.tenant.SetChannels(a.Channels)
	case ActSetRateLimit:
		v.SetRateLimit(a.BW, 0)
	default:
		panic(fmt.Sprintf("vssd: unknown action %v", a.Kind))
	}
}

// applyHarvestTarget moves the vSSD's harvested-channel count toward the
// target: harvesting more gSBs on a deficit, releasing its widest gSBs on
// a surplus.
func (p *Platform) applyHarvestTarget(v *VSSD, target int) {
	cur := p.gsbm.HarvestedChannels(v.id)
	if target > cur {
		deficit := target - cur
		for deficit > 0 {
			g := p.gsbm.HarvestFor(v.tenant, deficit)
			if g == nil {
				break
			}
			deficit -= g.NChls
		}
		return
	}
	if target < cur {
		surplus := cur - target
		for _, g := range p.gsbm.HarvestedBy(v.id) {
			if surplus <= 0 {
				break
			}
			if g.Reclaiming {
				continue
			}
			if g.NChls <= surplus {
				p.gsbm.Release(g)
				surplus -= g.NChls
			}
		}
	}
}

// TotalBytes returns the payload bytes moved by the device so far.
func (p *Platform) TotalBytes() int64 {
	var total int64
	for ch := 0; ch < p.cfg.Channels; ch++ {
		st := p.dev.Stats(ch)
		total += st.BytesRead + st.BytesWritten
	}
	return total
}
