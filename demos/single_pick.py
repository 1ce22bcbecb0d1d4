"""Drive past one brick, stop, and pick it -- then repeat with a rigged
depth fault to show how the failure is attributed."""

from clearbot.log import MessageEnvelope, Topic
from clearbot.orchestrator import Simulation
from clearbot.scene import BrickDims, ObjectClass, ObjectSpec
from clearbot.schema import DepthBiasInjection, ScenarioConfig


def one_brick(biased: bool) -> ScenarioConfig:
    return ScenarioConfig(
        name="one-brick",
        objects=(
            ObjectSpec("b", ObjectClass.BRICK, BrickDims(0.20, 0.095, 0.057), 1.2, 0.05, 0.3),
        ),
        ugv_end=(2.5, 0.0),
        speed=0.5,
        injections=(DepthBiasInjection("b", 0.02),) if biased else (),
    )


def show(title: str, biased: bool) -> None:
    print(f"--- {title} ---")
    sim = Simulation(one_brick(biased))

    def print_message(env: MessageEnvelope) -> None:
        if env.topic in (Topic.CONTROL_STOP, Topic.ARM_COMMANDS, Topic.ARM_STATUS):
            print(f"  t={env.t:8.3f}  {env.topic.value}")

    # the bus keeps no messages; a subscriber sees each one as it is published
    sim.bus.subscribe(print_message)
    report = sim.run()
    for r in report.records:
        line = f"  {r.object_id}: {r.outcome}, {r.elapsed_s:.1f} s of arm motion"
        if r.attribution:
            line += f", blamed on {', '.join(r.attribution)}"
        if r.cause:
            line += f" ({r.cause})"
        print(line)
    print(f"  picked {report.succeeded}/{report.attempted}\n")


def main() -> None:
    show("clean run", biased=False)
    show("2 cm depth bias on the standstill capture", biased=True)


if __name__ == "__main__":
    main()
