package soak

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/libsystem"
	"repro/internal/prog"
	"repro/internal/services"
	"repro/internal/sim"
	"repro/internal/xnu"
)

// svcClientPath is the in-cell Mach service client the crash schedules
// run alongside the benchmark: a supervision-aware app whose requests
// must keep succeeding (with bounded retries) while the daemons it talks
// to are being killed and respawned under it.
const svcClientPath = "/bin/soak-svc-client"

// svcClientRounds is how many config/notify/syslog rounds the client
// drives per cell — enough traffic to make every crash rule's Nth hit
// reachable on the quick battery.
const svcClientRounds = 40

// bootCellServices boots the launchd service tree in one lmbench cell and
// starts the service client app next to the benchmark process. Cells
// without an iOS layer (vanilla Android) have no services and are left
// alone. Failures are deliberately tolerated: a cell that cannot boot
// services still runs its benchmark, and the divergence shows up in the
// digest rather than as a host error.
func bootCellServices(sys *core.System) {
	if sys.IOSFS == nil {
		return
	}
	if _, err := sys.BootServices(); err != nil {
		return
	}
	if err := sys.InstallIOSBinary(svcClientPath, "soak-svc-client", nil, func(c *prog.Call) uint64 {
		runSvcClient(c.Ctx.(*kernel.Thread))
		return 0
	}); err != nil {
		return
	}
	if _, err := sys.Start(svcClientPath, nil); err != nil {
		return
	}
}

// runSvcClient is the client body: deterministic rounds of configd set/
// get, notifyd posts and syslog lines through ServiceClient, which hides
// daemon crashes behind dead-name detection, bootstrap re-resolution and
// bounded backoff. Request errors are tolerated — under a crash storm a
// round may exhaust its retry budget — but every outcome is deterministic
// and lands in the cell's trace digest.
func runSvcClient(th *kernel.Thread) {
	lc := libsystem.Sys(th)
	// Let launchd's children come through their startup syscalls so the
	// schedules' early Nth hits land in service loops, not mid-register.
	sleepTick(th, 5*time.Millisecond)
	cfg := services.NewServiceClient(lc, services.ConfigdName)
	nfy := services.NewServiceClient(lc, services.NotifydName)
	slg := services.NewServiceClient(lc, services.SyslogdName)
	for i := 0; i < svcClientRounds; i++ {
		if i%2 == 0 {
			cfg.Send(&xnu.Message{ID: services.MsgConfigSet,
				Body: []byte(fmt.Sprintf("soak.tick=%d", i))})
		} else {
			cfg.Call(&xnu.Message{ID: services.MsgConfigGet, Body: []byte("soak.tick")})
		}
		nfy.Send(&xnu.Message{ID: services.MsgNotifyPost, Body: []byte("soak.notification")})
		slg.Send(&xnu.Message{ID: services.MsgSyslog,
			Body: []byte(fmt.Sprintf("soak-svc-client: round %d", i))})
		sleepTick(th, time.Millisecond)
	}
}

// sleepTick sleeps d of virtual time, re-sleeping the remainder when an
// injected interrupt cuts the sleep short.
func sleepTick(th *kernel.Thread, d time.Duration) {
	deadline := th.Now() + d
	for th.Now() < deadline {
		if th.Proc().Sleep(deadline-th.Now()) == sim.WakeInterrupted {
			continue
		}
	}
}
