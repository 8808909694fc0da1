package main

import (
	"errors"
	"os"

	"dwatch/internal/api"
	"dwatch/internal/cluster"
	"dwatch/internal/serve"
	"dwatch/internal/sim"
)

// joinCluster is -cluster mode: the environments are a *catalog* of
// deployments this node can host, not a set it owns. Ownership comes
// from the gateway's directory — the agent joins, heartbeats, and
// reconciles the fleet against each response, adding (WAL replay
// included) and draining environments as slot assignments move.
// -simulate starts traffic on each environment when this node adopts
// it; the traffic stops when the environment drains away.
func (d *daemon) joinCluster(catalog map[string]sim.Config, ids []string) error {
	if *httpAddr == "" {
		return errors.New("-cluster requires -http: the gateway proxies environment requests to this node")
	}
	node := *nodeID
	if node == "" {
		var err error
		if node, err = os.Hostname(); err != nil {
			return err
		}
	}
	d.planeOpts = append(d.planeOpts, serve.WithCluster(func() api.ClusterStatus {
		st := api.ClusterStatus{Role: "node", Node: node, Assignments: map[string]string{}}
		for _, id := range d.f.IDs() {
			st.Assignments[id] = node
		}
		return st
	}))
	url, err := d.startPlane()
	if err != nil {
		return err
	}
	self := *advertise
	if self == "" {
		self = url
	}

	aopts := []cluster.AgentOption{cluster.WithAgentLogger(logger)}
	if *simulate {
		aopts = append(aopts, cluster.WithOnAdopt(d.simulate))
	}
	agent := cluster.NewAgent(node, self, *clusterURL, d.f, catalog, aopts...)
	logger.Info("cluster node up", "node", node, "gateway", *clusterURL,
		"advertise", self, "catalog", len(ids), "wal_root", *walDir)
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := agent.Run(d.ctx); err != nil && d.ctx.Err() == nil {
			logger.Error("cluster agent stopped", "error", err)
		}
	}()
	// Leave the directory (Close waits for the Run loop) before the
	// fleet drains.
	d.onStop = append(d.onStop, func() { agent.Close(); <-done })
	return nil
}
