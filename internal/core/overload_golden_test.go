package core_test

import (
	"fmt"
	"strings"
	"testing"

	"rotary/internal/core"
	"rotary/internal/sim"
)

// The overload suites' outcomes pinned as expected values: per job its id,
// status, end time and processing seconds, then the executor's
// OverloadStats and RecoveryStats. The determinism tests only compare two
// runs of the same tree; these goldens were captured on the executors as
// they stood before their lifecycle was shared, so a refactor that moves
// any admission verdict, shed victim, watchdog strike, forced grant or
// crash recovery fails here. Floats print in Go's shortest exact form.

type outcomeJob interface {
	ID() string
	Status() core.JobStatus
	EndTime() sim.Time
	ProcessingSecs() float64
}

func renderOutcomes[J outcomeJob](jobs []J, ov core.OverloadStats, rec core.RecoveryStats) string {
	var b strings.Builder
	for _, j := range jobs {
		fmt.Fprintf(&b, "%s %v %v %v\n", j.ID(), j.Status(), float64(j.EndTime()), j.ProcessingSecs())
	}
	fmt.Fprintf(&b, "%+v\n%+v\n", ov, rec)
	return b.String()
}

func checkOutcomeGolden(t *testing.T, key, got string) {
	t.Helper()
	want, ok := overloadGoldens[key]
	if !ok {
		t.Errorf("no golden for %s; this run rendered:\n%s", key, got)
		return
	}
	if got != want {
		t.Errorf("%s diverged from its golden.\ngot:\n%s\nwant:\n%s", key, got, want)
	}
}

var overloadGoldens = map[string]string{
	"aqp/1": `ov-00 attained 1162.847506813399 910.4843569126267
ov-01 expired 165.9428174365189 112.77569335314256
ov-02 shed 37.64311061211586 0
ov-03 expired 158.5496375363965 79.77853476527986
ov-04 rejected 11.727254426067011 0
ov-05 rejected 15.091533758531524 0
ov-06 rejected 21.06427977115349 0
ov-07 rejected 22.270377631776963 0
ov-08 rejected 25.2433296629347 0
ov-09 rejected 25.267579881791097 0
ov-10 rejected 28.478708482015936 0
ov-11 expired 223.85507824973706 116.2017157921326
ov-12 rejected 40.73763831064278 0
ov-13 rejected 53.78103437937162 0
ov-14 rejected 54.32608271075589 0
ov-15 rejected 56.66487169897533 0
ov-16 rejected 56.862313465269104 0
ov-17 rejected 65.19157972102722 0
ov-18 rejected 70.083884619492 0
ov-19 rejected 78.74655543292421 0
ov-20 rejected 93.86504548313053 0
ov-21 rejected 99.41939453506275 0
ov-22 rejected 119.86318349370298 0
ov-23 rejected 123.53710426237524 0
{WatchdogPreemptions:40 WatchdogWastedSecs:511.550558672458 Rejected:19 Shed:1 Degraded:0 ForcedGrants:2 MaxPendingDepth:4}
{Crashes:2 Rollbacks:42 ScratchRestarts:0 WastedWorkSecs:9.209023659151994 RecoveryLatencySecs:49.40063756525933 Recovered:2 Reattached:0}
`,
	"aqp/7": `ov-00 attained 1575.815105246059 1298.7984836674846
ov-01 expired 188.9302074123311 113.99289209457855
ov-02 attained 1499.7232377473165 1142.5834488447797
ov-03 expired 174.1907395334622 84.02853476527986
ov-04 rejected 25.521180194348386 0
ov-05 rejected 27.85289613725502 0
ov-06 rejected 37.51478958192614 0
ov-07 rejected 37.68380995630973 0
ov-08 rejected 51.69802916585073 0
ov-09 rejected 53.00248558814776 0
ov-10 rejected 61.672407607127305 0
ov-11 rejected 69.8043417464906 0
ov-12 rejected 77.86172365875453 0
ov-13 rejected 80.02392429823921 0
ov-14 rejected 88.89799950806405 0
ov-15 rejected 89.15772954411906 0
ov-16 rejected 104.78127274720539 0
ov-17 rejected 105.99457735426257 0
ov-18 rejected 110.48462524031991 0
ov-19 rejected 112.5036227897872 0
ov-20 rejected 113.18472686919108 0
ov-21 rejected 115.8871666591926 0
ov-22 rejected 122.31956866528658 0
ov-23 rejected 126.40897296668193 0
{WatchdogPreemptions:64 WatchdogWastedSecs:1079.5903628749777 Rejected:20 Shed:0 Degraded:0 ForcedGrants:1 MaxPendingDepth:3}
{Crashes:6 Rollbacks:70 ScratchRestarts:0 WastedWorkSecs:54.53393283596758 RecoveryLatencySecs:197.0691479750575 Recovered:6 Reattached:0}
`,
	"aqp/42": `ov-00 attained 1152.510582809079 909.9948589809006
ov-01 expired 150.95899660421387 96.13620792666623
ov-02 shed 23.48372761573972 0
ov-03 expired 167.98029539775564 91.2000103328391
ov-04 rejected 23.38228417819959 0
ov-05 expired 189.6211602383599 84.74208320430819
ov-06 rejected 23.900139530003976 0
ov-07 rejected 26.67018776460861 0
ov-08 rejected 28.828841629017326 0
ov-09 rejected 29.333483416069672 0
ov-10 rejected 38.22606101481667 0
ov-11 rejected 42.52818931741617 0
ov-12 rejected 56.28061109322181 0
ov-13 rejected 64.73724229821562 0
ov-14 rejected 64.97451518266745 0
ov-15 rejected 76.73762055598112 0
ov-16 rejected 77.52044163119731 0
ov-17 rejected 81.6858221644379 0
ov-18 rejected 82.98954779580376 0
ov-19 rejected 96.19962844263635 0
ov-20 rejected 98.07571193753317 0
ov-21 rejected 106.78795674208224 0
ov-22 rejected 110.75024050014919 0
ov-23 rejected 127.76664676363248 0
{WatchdogPreemptions:38 WatchdogWastedSecs:485.2084046846662 Rejected:19 Shed:1 Degraded:0 ForcedGrants:2 MaxPendingDepth:3}
{Crashes:4 Rollbacks:40 ScratchRestarts:0 WastedWorkSecs:32.57614214654229 RecoveryLatencySecs:65.40855455665047 Recovered:3 Reattached:0}
`,
	"dlt/reject/1": `dlt-00-alexnet expired 693.6535868058497 453.15750236216627
dlt-01-bilstm attained 353.61620434102906 47.838561542712256
dlt-02-shufflenetv2 attained 1107.038640082862 632.1010327701235
dlt-03-efficientnet-b0 expired 328.0944235696729 240.49608444368363
dlt-04-lenet expired 113.35281312598933 25.754474
dlt-05-bilstm attained 1086.1965983485618 413.5406154271225
dlt-06-mobilenetv2 rejected 84.25711908461396 0
dlt-07-bilstm rejected 89.08151052710785 0
dlt-08-mobilenetv2 rejected 100.9733186517388 0
dlt-09-resnet-18-pretrained rejected 101.07031952716439 0
dlt-10-resnext-29 attained 4159.257436133477 3744.5864093276273
dlt-11-shufflenetv2 rejected 150.57244244846345 0
dlt-12-lenet rejected 162.95055324257112 0
dlt-13-shufflenet rejected 215.12413751748647 0
dlt-14-shufflenet rejected 217.30433084302356 0
dlt-15-bert-mini rejected 226.65948679590133 0
{WatchdogPreemptions:0 WatchdogWastedSecs:0 Rejected:9 Shed:0 Degraded:0 ForcedGrants:0 MaxPendingDepth:6}
{Crashes:5 Rollbacks:5 ScratchRestarts:0 WastedWorkSecs:168.9419093276239 RecoveryLatencySecs:357.3514958917722 Recovered:4 Reattached:0}
`,
	"dlt/reject/7": `dlt-00-alexnet expired 1430.4211034489892 449.2893715898897
dlt-01-bilstm attained 204.0234590233348 47.838561542712256
dlt-02-shufflenetv2 attained 3555.063127130396 683.1006606730878
dlt-03-efficientnet-b0 expired 418.9977626956623 240.49608444368363
dlt-04-lenet expired 204.25615225197865 25.754474
dlt-05-bilstm attained 3472.8354821190837 423.95061542712244
dlt-06-mobilenetv2 rejected 150.05915832770455 0
dlt-07-bilstm rejected 150.73523982523892 0
dlt-08-mobilenetv2 attained 3426.9969205763714 2943.390569641482
dlt-09-resnet-18-pretrained attained 1888.8862296349978 250.88026812264752
dlt-10-resnext-29 rejected 246.68963042850922 0
dlt-11-shufflenetv2 rejected 279.2173669859624 0
dlt-12-lenet rejected 311.4468946350181 0
dlt-13-shufflenet rejected 320.09569719295683 0
dlt-14-shufflenet rejected 355.5919980322562 0
dlt-15-bert-mini rejected 356.63091817647626 0
{WatchdogPreemptions:0 WatchdogWastedSecs:0 Rejected:8 Shed:0 Degraded:0 ForcedGrants:0 MaxPendingDepth:6}
{Crashes:2 Rollbacks:2 ScratchRestarts:0 WastedWorkSecs:61.75937878972661 RecoveryLatencySecs:930.5262261146232 Recovered:2 Reattached:0}
`,
	"dlt/reject/42": `dlt-00-alexnet expired 666.7415155994771 450.55816700477044
dlt-01-bilstm attained 353.61620434102906 47.838561542712256
dlt-02-shufflenetv2 attained 984.3495319845391 637.2160327701235
dlt-03-efficientnet-b0 expired 328.0944235696729 240.49608444368363
dlt-04-lenet expired 353.84889756967294 25.754474
dlt-05-bilstm attained 1111.4552166126757 468.93536199217453
dlt-06-mobilenetv2 rejected 95.6005581200159 0
dlt-07-bilstm rejected 106.68075105843444 0
dlt-08-mobilenetv2 rejected 115.3153665160693 0
dlt-09-resnet-18-pretrained rejected 117.33393366427869 0
dlt-10-resnext-29 rejected 152.9042440592667 0
dlt-11-shufflenetv2 rejected 170.11275726966468 0
dlt-12-lenet rejected 225.12244437288723 0
dlt-13-shufflenet rejected 258.9489691928625 0
dlt-14-shufflenet rejected 259.8980607306698 0
dlt-15-bert-mini rejected 306.9504822239245 0
{WatchdogPreemptions:0 WatchdogWastedSecs:0 Rejected:10 Shed:0 Degraded:0 ForcedGrants:0 MaxPendingDepth:5}
{Crashes:2 Rollbacks:2 ScratchRestarts:0 WastedWorkSecs:44.98474656505209 RecoveryLatencySecs:174.75858307439717 Recovered:2 Reattached:0}
`,
	"dlt/shed/1": `dlt-00-alexnet expired 686.4027800736302 445.9066956299466
dlt-01-bilstm attained 353.61620434102906 47.838561542712256
dlt-02-shufflenetv2 attained 1060.3713997357045 632.1010327701235
dlt-03-efficientnet-b0 expired 328.0944235696729 240.49608444368363
dlt-04-lenet expired 113.35281312598933 25.754474
dlt-05-bilstm shed 84.25711908461396 0
dlt-06-mobilenetv2 expired 371.59207356967295 43.49764999999999
dlt-07-bilstm rejected 89.08151052710785 0
dlt-08-mobilenetv2 rejected 100.9733186517388 0
dlt-09-resnet-18-pretrained rejected 101.07031952716439 0
dlt-10-resnext-29 shed 150.57244244846345 0
dlt-11-shufflenetv2 shed 162.95055324257112 0
dlt-12-lenet shed 217.30433084302356 0
dlt-13-shufflenet rejected 215.12413751748647 0
dlt-14-shufflenet expired 363.3394335696729 35.24500999999999
dlt-15-bert-mini rejected 226.65948679590133 0
{WatchdogPreemptions:0 WatchdogWastedSecs:0 Rejected:5 Shed:4 Degraded:0 ForcedGrants:0 MaxPendingDepth:6}
{Crashes:0 Rollbacks:0 ScratchRestarts:0 WastedWorkSecs:0 RecoveryLatencySecs:0 Recovered:0 Reattached:0}
`,
	"dlt/shed/7": `dlt-00-alexnet expired 1081.8340443121915 450.2893715898897
dlt-01-bilstm attained 204.0234590233348 47.838561542712256
dlt-02-shufflenetv2 attained 2011.1038792807815 637.2160327701237
dlt-03-efficientnet-b0 expired 418.9977626956623 240.49608444368363
dlt-04-lenet expired 204.25615225197865 25.754474
dlt-05-bilstm shed 150.05915832770455 0
dlt-06-mobilenetv2 expired 221.99932825197865 43.49764999999999
dlt-07-bilstm rejected 150.73523982523892 0
dlt-08-mobilenetv2 shed 320.09569719295683 0
dlt-09-resnet-18-pretrained attained 735.8077109204994 249.88026812264752
dlt-10-resnext-29 shed 279.2173669859624 0
dlt-11-shufflenetv2 shed 311.4468946350181 0
dlt-12-lenet attained 2330.785904330796 1911.7881416351338
dlt-13-shufflenet shed 355.5919980322562 0
dlt-14-shufflenet expired 454.24277269566227 35.24500999999999
dlt-15-bert-mini rejected 356.63091817647626 0
{WatchdogPreemptions:0 WatchdogWastedSecs:0 Rejected:2 Shed:5 Degraded:0 ForcedGrants:0 MaxPendingDepth:6}
{Crashes:0 Rollbacks:0 ScratchRestarts:0 WastedWorkSecs:0 RecoveryLatencySecs:0 Recovered:0 Reattached:0}
`,
	"dlt/shed/42": `dlt-00-alexnet expired 656.7850442246533 440.6016956299467
dlt-01-bilstm attained 353.61620434102906 47.838561542712256
dlt-02-shufflenetv2 attained 969.2780606097153 632.1010327701235
dlt-03-efficientnet-b0 expired 328.0944235696729 240.49608444368363
dlt-04-lenet expired 353.84889756967294 25.754474
dlt-05-bilstm shed 95.6005581200159 0
dlt-06-mobilenetv2 expired 371.59207356967295 43.49764999999999
dlt-07-bilstm rejected 106.68075105843444 0
dlt-08-mobilenetv2 rejected 115.3153665160693 0
dlt-09-resnet-18-pretrained rejected 117.33393366427869 0
dlt-10-resnext-29 rejected 152.9042440592667 0
dlt-11-shufflenetv2 rejected 170.11275726966468 0
dlt-12-lenet rejected 225.12244437288723 0
dlt-13-shufflenet rejected 258.9489691928625 0
dlt-14-shufflenet rejected 259.8980607306698 0
dlt-15-bert-mini rejected 306.9504822239245 0
{WatchdogPreemptions:0 WatchdogWastedSecs:0 Rejected:9 Shed:1 Degraded:0 ForcedGrants:0 MaxPendingDepth:5}
{Crashes:0 Rollbacks:0 ScratchRestarts:0 WastedWorkSecs:0 RecoveryLatencySecs:0 Recovered:0 Reattached:0}
`,
}
