package main

import "runtime"

// workloads are the six named workloads, in the order -all runs them. The
// names are fixed: later issues cite them. perSecond is in the workload's
// own unit of input: elements (scalar, autotune, bridge), executions of the
// whole graph (textsearch, manykernels) or requests per connection
// (gateway).
var workloads = []workload{
	{name: "scalar", perSecond: 1.7e6, run: runScalar, layer: layerScalar},
	{name: "autotune", perSecond: 180e6, run: runAutotune, layer: layerAutotune},
	{name: "textsearch", perSecond: 38, prepare: prepareTextsearch, run: runTextsearch, layer: layerTextsearch},
	{name: "manykernels", perSecond: 3.3, run: runManykernels, layer: layerManykernels},
	{name: "gateway", perSecond: gwRates[1] / float64(runtime.GOMAXPROCS(0)), run: runGateway, layer: layerGateway},
	{name: "bridge", perSecond: 220e3, run: runBridge, layer: layerBridge},
}
