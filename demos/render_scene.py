"""Render a small tabletop scene to PPM/PGM images.

Usage: python3 demos/render_scene.py [out_dir]
"""

import sys
from pathlib import Path

from clearbot.camera import (
    DEFAULT_INTRINSICS,
    encode_depth_pgm,
    encode_label_ppm,
    render,
)
from clearbot.scene import (
    ArmMount,
    BrickDims,
    CameraMount,
    ObjectClass,
    ObjectSpec,
    PipeDims,
    Pose2D,
    Scene,
)


def main() -> None:
    out = Path(sys.argv[1] if len(sys.argv) > 1 else "demo_out")
    out.mkdir(parents=True, exist_ok=True)

    scene = Scene(
        objects=(
            ObjectSpec("brick-a", ObjectClass.BRICK, BrickDims(0.20, 0.095, 0.057), 0.85, 0.20, 0.3),
            ObjectSpec("brick-b", ObjectClass.BRICK, BrickDims(0.20, 0.095, 0.057), 1.35, 0.15, -0.5),
            ObjectSpec("pipe-a", ObjectClass.PIPE, PipeDims(0.03, 0.40), 1.05, -0.28, 1.0),
        ),
        ugv=Pose2D(0.0, 0.0, 0.0),
        camera_mount=CameraMount(1.05, 0.0, 1.2),
        arm_mount=ArmMount(0.40, 0.0, 0.15),
    )
    label_image, depth_image = render(scene, DEFAULT_INTRINSICS)

    labels = label_image.data
    depth = depth_image.data
    print(f"image {labels.shape[1]}x{labels.shape[0]}")
    print(f"floor depth {scene.camera_mount.height:.3f} m")
    print(f"brick pixels {int((labels == 1).sum())}, pipe pixels {int((labels == 2).sum())}")
    print(f"depth range {depth[depth > 0].min():.3f}..{depth.max():.3f} m")

    (out / "scene_labels.ppm").write_bytes(encode_label_ppm(label_image))
    (out / "scene_depth.pgm").write_bytes(encode_depth_pgm(depth_image))
    print(f"wrote {out / 'scene_labels.ppm'} and {out / 'scene_depth.pgm'}")


if __name__ == "__main__":
    main()
